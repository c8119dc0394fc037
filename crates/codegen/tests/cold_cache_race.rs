//! Cold-cache regression: concurrent in-process loads of one kernel
//! from an empty artifact directory run `rustc` exactly once and never
//! fall back to the interpreter. Before the per-hash single-flight, two
//! loopback cluster nodes both compiled, wrote the same source and temp
//! artifact, and one of them silently fell back.
//!
//! This file holds a single test because it points `CFR_CODEGEN_DIR`
//! at a fresh directory for the whole process.

use std::sync::{Arc, Barrier};

use cfr_codegen::rustc_available;
use cfr_core::{make_runner, Instr, Kernel, OptLevel};
use freeride::{KernelBackend, Recorder, TraceLevel};
use linearize::PathMeta;

/// `out[0] += data[row] * 1.75` — small, valid, and unique to this test.
fn kernel() -> Kernel {
    Kernel {
        code: vec![
            Instr::Const { dst: 4, val: 0.0 },
            Instr::Const { dst: 5, val: 1.75 },
            Instr::LoadData {
                dst: 2,
                path: 0,
                idx: vec![0],
            },
            Instr::Bin {
                op: cfr_core::ArithOp::Mul,
                dst: 3,
                a: 2,
                b: 5,
            },
            Instr::Accumulate {
                group: 0,
                cell: 4,
                val: 3,
            },
            Instr::Halt,
        ],
        entry: 2,
        regs: 6,
        paths: vec![PathMeta {
            levels: 1,
            unit_size: vec![1],
            unit_offset: vec![vec![]],
            position: vec![vec![]],
            level_offset: vec![],
            terminal_offset: 0,
        }],
        state_names: vec![],
        out_names: vec!["out".into()],
    }
}

#[test]
fn concurrent_cold_loads_compile_once_and_never_fall_back() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable — compiled backend cannot be exercised");
        return;
    }
    let mut dir = std::env::temp_dir();
    dir.push(format!("cfr-codegen-cold-race-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Set before any thread exists; this process holds no other test.
    std::env::set_var("CFR_CODEGEN_DIR", &dir);
    cfr_codegen::install();

    const THREADS: usize = 4;
    let recorder = Arc::new(Recorder::new(TraceLevel::Phases));
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (recorder, start) = (recorder.clone(), start.clone());
            std::thread::spawn(move || {
                let k = kernel();
                start.wait();
                let choice = make_runner(
                    KernelBackend::Compiled,
                    &k,
                    vec![],
                    vec![],
                    0,
                    OptLevel::Opt2,
                    Some(&recorder),
                )
                .expect("runner");
                choice.backend
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), KernelBackend::Compiled);
    }

    let counters = recorder.drain().counters;
    assert_eq!(counters.get("core.codegen_compile"), Some(&1));
    assert_eq!(counters.get("core.codegen_fallback"), None);
    assert_eq!(counters.get("core.codegen_jobs"), Some(&(THREADS as i64)));
    // Only the published source and artifact remain: no temp leftovers.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "{names:?}");
    assert!(
        names[0].ends_with(".rs") && names[1].ends_with(".so"),
        "{names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
