//! The one writer behind every `BENCH_<name>.json` report.
//!
//! Each report binary is a single [`emit`] call: its `run` function
//! measures and checks, returning the report body or the reason the run
//! failed; `emit` adds the shared header, refuses a document holding a
//! NaN or infinity, and writes `BENCH_<name>.json` into the directory
//! named by `MG_BENCH_OUT_DIR` (default: the working directory).

use mg_obs::Json;
use std::path::PathBuf;

/// The host's available parallelism (1 when it cannot be determined).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run one report and write it. Returns the process exit code: 0 once
/// the file is written, 1 when `run` fails, its body holds a non-finite
/// number, or the write fails — and then no file is written.
pub fn emit(name: &str, run: impl FnOnce() -> Result<Json, String>) -> i32 {
    match run().and_then(|body| write(name, body)) {
        Ok(path) => {
            eprintln!("{name}: wrote {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            1
        }
    }
}

fn write(name: &str, body: Json) -> Result<PathBuf, String> {
    let Json::Obj(mut doc) = body else {
        return Err(format!("report body is not a JSON object: {body}"));
    };
    let header = [
        ("bench", name.into()),
        ("host_threads", host_threads().into()),
        ("parallel_feature", cfg!(feature = "parallel").into()),
    ];
    doc.extend(header.map(|(k, v): (&str, Json)| (k.to_string(), v)));
    let doc = Json::Obj(doc);
    if let Some(at) = non_finite(&doc, "") {
        return Err(format!("non-finite number at {at}"));
    }
    let dir = PathBuf::from(std::env::var_os("MG_BENCH_OUT_DIR").unwrap_or(".".into()));
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{doc:#}\n")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Where in `v` the first non-finite number sits, if anywhere.
pub(crate) fn non_finite(v: &Json, at: &str) -> Option<String> {
    match v {
        Json::Num(x) if !x.is_finite() => Some(at.to_string()),
        Json::Arr(items) => {
            (items.iter().enumerate()).find_map(|(i, x)| non_finite(x, &format!("{at}[{i}]")))
        }
        Json::Obj(m) => m
            .iter()
            .find_map(|(k, x)| non_finite(x, &format!("{at}.{k}"))),
        _ => None,
    }
}

/// Assert that the report body `v` carries every key in `keys`.
#[cfg(test)]
pub(crate) fn assert_keys(v: &Json, keys: &[&str]) {
    for key in keys {
        assert!(v.get(key).is_some(), "missing {key} in {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_one_checked_document_into_the_out_dir() {
        let dir = std::env::temp_dir().join(format!("mg_bench_report_{}", std::process::id()));
        std::env::set_var("MG_BENCH_OUT_DIR", &dir);
        let path = dir.join("BENCH_unit.json");
        let body = || {
            Json::obj([
                ("rows", vec![Json::obj([("x", 0.1.into())])].into()),
                ("label", "a\"b".into()),
            ])
        };

        // the document round-trips, header included
        assert_eq!(emit("unit", || Ok(body())), 0);
        let v = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("unit"));
        let threads = v.get("host_threads").and_then(Json::as_f64);
        assert_eq!(threads, Some(host_threads() as f64));
        assert!(matches!(v.get("parallel_feature"), Some(Json::Bool(_))));
        let row = &v.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row.get("x").and_then(Json::as_f64), Some(0.1));
        assert_eq!(v.get("label").and_then(Json::as_str), Some("a\"b"));

        // a NaN anywhere fails the run and writes nothing
        std::fs::remove_file(&path).unwrap();
        let nan = || Ok(Json::obj([("rows", vec![f64::NAN].into())]));
        assert_eq!(emit("unit", nan), 1);
        assert!(!path.exists());
        assert_eq!(emit("unit", || Err("check failed".into())), 1);
        assert!(!path.exists());

        std::env::remove_var("MG_BENCH_OUT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
