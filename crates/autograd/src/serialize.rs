//! Lossless text serialization of named tensors.
//!
//! Trained evaluator networks are expensive to produce (ground-truth
//! generation plus training), so they are worth persisting. The format is a
//! deliberately simple line-oriented text file — one tensor per line,
//! values as hexadecimal `f32` bit patterns so round trips are exact:
//!
//! ```text
//! dance-tensors v1
//! <name>;<d0>,<d1>,...;<hex> <hex> ...
//! ```

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tensor::Tensor;

const MAGIC: &str = "dance-tensors v1";

/// Writes started in this process, numbering their temporary files.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A sibling temporary path for an atomic write of `path`, unique per
/// write: `<path>.tmp.<pid>.<n>`, with `n` from a process-wide counter.
///
/// Two writers to the same target — in different processes, or threads of
/// one process, such as a fenced attempt and its re-dispatch sharing a
/// checkpoint directory — therefore never write one temporary file, so
/// each rename publishes one writer's complete content.
#[must_use]
pub fn unique_temp_path(path: &Path) -> PathBuf {
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    // analyze:allow(determinism) pid names the temp file only; contents are seeded
    path.with_extension(format!("tmp.{}.{n}", std::process::id()))
}

/// Writes named tensors to `path` (parent directories are created).
///
/// The write is atomic: content goes to a sibling temporary file which is
/// renamed over `path`, so a crash mid-save can never leave a truncated
/// checkpoint where a valid one used to be.
///
/// # Errors
///
/// Returns any I/O error from creating, writing or renaming the file.
pub fn save_tensors(path: impl AsRef<Path>, items: &[(String, Tensor)]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = String::from(MAGIC);
    out.push('\n');
    for (name, tensor) in items {
        assert!(
            !name.contains(';') && !name.contains('\n'),
            "tensor name {name:?} contains a reserved character"
        );
        out.push_str(name);
        out.push(';');
        let dims: Vec<String> = tensor.shape().iter().map(|d| d.to_string()).collect();
        out.push_str(&dims.join(","));
        out.push(';');
        let mut first = true;
        for &v in tensor.data() {
            if !first {
                out.push(' ');
            }
            first = false;
            out.push_str(&format!("{:08x}", v.to_bits()));
        }
        out.push('\n');
    }
    let tmp = unique_temp_path(path);
    fs::write(&tmp, out)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _cleanup = fs::remove_file(&tmp); // best effort; the error below matters more
        return Err(e);
    }
    Ok(())
}

/// Reads named tensors from `path`.
///
/// # Errors
///
/// Returns an I/O error when the file cannot be read or is malformed
/// (wrong magic, bad shape, value count mismatch).
pub fn load_tensors(path: impl AsRef<Path>) -> io::Result<Vec<(String, Tensor)>> {
    let content = fs::read_to_string(&path)?;
    let mut lines = content.lines();
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if lines.next() != Some(MAGIC) {
        return Err(bad("missing dance-tensors header"));
    }
    let mut items = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, ';');
        let name = parts
            .next()
            .ok_or_else(|| bad(&format!("line {}: missing name", lineno + 2)))?;
        let shape_str = parts
            .next()
            .ok_or_else(|| bad(&format!("line {}: missing shape", lineno + 2)))?;
        let data_str = parts
            .next()
            .ok_or_else(|| bad(&format!("line {}: missing data", lineno + 2)))?;
        let shape: Vec<usize> = if shape_str.is_empty() {
            Vec::new()
        } else {
            shape_str
                .split(',')
                .map(|d| d.parse::<usize>())
                .collect::<Result<_, _>>()
                .map_err(|e| bad(&format!("line {}: bad shape: {e}", lineno + 2)))?
        };
        let data: Vec<f32> = if data_str.is_empty() {
            Vec::new()
        } else {
            data_str
                .split(' ')
                .map(|h| u32::from_str_radix(h, 16).map(f32::from_bits))
                .collect::<Result<_, _>>()
                .map_err(|e| bad(&format!("line {}: bad value: {e}", lineno + 2)))?
        };
        let numel: usize = shape.iter().product();
        if data.len() != numel {
            return Err(bad(&format!(
                "line {}: shape {:?} expects {} values, found {}",
                lineno + 2,
                shape,
                numel,
                data.len()
            )));
        }
        items.push((name.to_string(), Tensor::from_vec(data, &shape)));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dance_serialize_{name}_{}.txt", std::process::id()))
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let items = vec![
            (
                "weights".to_string(),
                Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng),
            ),
            (
                "bias".to_string(),
                Tensor::from_vec(vec![f32::MIN_POSITIVE, -0.0, 1e30], &[3]),
            ),
            ("scalar".to_string(), Tensor::scalar(std::f32::consts::PI)),
        ];
        let path = temp("roundtrip");
        save_tensors(&path, &items).unwrap();
        let loaded = load_tensors(&path).unwrap();
        assert_eq!(items.len(), loaded.len());
        for ((n1, t1), (n2, t2)) in items.iter().zip(&loaded) {
            assert_eq!(n1, n2);
            assert_eq!(t1.shape(), t2.shape());
            for (a, b) in t1.data().iter().zip(t2.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exactness violated");
            }
        }
        let _ = fs::remove_file(path);
    }

    #[test]
    fn missing_header_is_invalid_data() {
        let path = temp("noheader");
        fs::write(&path, "not a tensor file\n").unwrap();
        let err = load_tensors(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn count_mismatch_is_invalid_data() {
        let path = temp("mismatch");
        fs::write(&path, format!("{MAGIC}\nw;2,2;3f800000 3f800000\n")).unwrap();
        let err = load_tensors(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(path);
    }

    /// Two threads saving different contents to one path, many times:
    /// every save succeeds and the file always holds one writer's full
    /// content.
    #[test]
    fn concurrent_saves_to_one_path_never_mix() {
        let path = temp("concurrent");
        let contents: Vec<Vec<(String, Tensor)>> = (0..2)
            .map(|w| vec![(format!("w{w}"), Tensor::full(&[512], w as f32 + 1.0))])
            .collect();
        let barrier = std::sync::Barrier::new(contents.len());
        // Failures are counted, not panicked on, so both writers always
        // reach every barrier and a broken writer fails the test instead
        // of hanging it.
        let failures: usize = std::thread::scope(|s| {
            let writers: Vec<_> = contents
                .iter()
                .map(|items| {
                    let (path, contents, barrier) = (&path, &contents, &barrier);
                    s.spawn(move || {
                        (0..100)
                            .filter(|_| {
                                barrier.wait(); // both writers start each save together
                                let back =
                                    save_tensors(path, items).and_then(|()| load_tensors(path));
                                !back.is_ok_and(|b| {
                                    contents
                                        .iter()
                                        .any(|c| c[0].0 == b[0].0 && c[0].1.data() == b[0].1.data())
                                })
                            })
                            .count()
                    })
                })
                .collect();
            writers
                .into_iter()
                .map(|w| w.join().expect("writer thread"))
                .sum()
        });
        assert_eq!(
            failures, 0,
            "saves failed or left a file with neither writer's content"
        );
        let _ = fs::remove_file(path);
    }

    #[test]
    fn empty_file_roundtrip() {
        let path = temp("empty");
        save_tensors(&path, &[]).unwrap();
        assert!(load_tensors(&path).unwrap().is_empty());
        let _ = fs::remove_file(path);
    }
}
