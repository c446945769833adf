//! End-to-end tests of the `squarec` driver and the frontend's
//! compile-equivalence guarantee.
//!
//! Two layers:
//!
//! * **Driver**: the actual binary run against the committed
//!   `examples/sq/` corpus (all four policies, `--validate`), against
//!   broken input (diagnostics + exit code), and through a
//!   `--dump-catalog` / `--roundtrip` cycle.
//! * **API**: every catalog benchmark must survive
//!   `pretty → parse → compile` with a report *field-identical* to
//!   compiling the in-memory program — the external `.sq` path is the
//!   same compiler, not a near miss. (NISQ set here; the full catalog
//!   including MUL64 runs under `--ignored` in the `frontend` CI job.)

use std::path::{Path, PathBuf};
use std::process::Command;

use square_core::{compile, CompileReport, CompilerConfig, Policy};
use square_qir::pretty::program_listing;
use square_workloads::{build, Benchmark};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sq")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("examples/sq exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sq"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "committed corpus went missing: {files:?}");
    files
}

fn squarec() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_squarec"));
    // The corpus imports `std`, resolved from the cwd-relative `lib/`
    // default; run the driver from the workspace root like a user would.
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    cmd
}

#[test]
fn corpus_compiles_under_every_policy() {
    for file in corpus_files() {
        for policy in Policy::ALL {
            let out = squarec()
                .arg(&file)
                .args(["--policy", policy.cli_name()])
                .output()
                .expect("squarec runs");
            assert!(
                out.status.success(),
                "{} under {}: {}",
                file.display(),
                policy.cli_name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("aqv"), "missing table header:\n{stdout}");
        }
    }
}

#[test]
fn corpus_validates_with_the_oracle_stack() {
    let out = squarec()
        .args(corpus_files())
        .args(["--all-policies", "--validate", "--roundtrip"])
        .output()
        .expect("squarec runs");
    assert!(
        out.status.success(),
        "validation failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("round-trip OK"), "{stderr}");
}

#[test]
fn parse_errors_exit_nonzero_with_spans() {
    let dir = std::env::temp_dir().join("squarec_test_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.sq");
    std::fs::write(
        &bad,
        "entry module main(0 params, 1 ancilla) {\n  compute {\n    ccz a0;\n  }\n}\n",
    )
    .unwrap();
    let out = squarec().arg(&bad).output().expect("squarec runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown gate `ccz`"), "{stderr}");
    assert!(stderr.contains(":3:5"), "line/col anchor missing: {stderr}");
    assert!(stderr.contains("did you mean `ccx`?"), "{stderr}");
}

#[test]
fn usage_errors_exit_two() {
    let out = squarec().output().expect("squarec runs");
    assert_eq!(out.status.code(), Some(2));
    let out = squarec()
        .args(["x.sq", "--policy", "bogus"])
        .output()
        .expect("squarec runs");
    assert_eq!(out.status.code(), Some(2));
}

/// A machine past `ArchSpec::MAX_QUBITS` is refused before anything is
/// allocated, not an allocation abort: an explicit spec as a usage
/// error, an auto-sized one (a program declaring 2^28 ancillas) as a
/// compile error, also when the callee footprints summed over call
/// sites pass `u64::MAX`. So is a frame declaring more ancillas than
/// an explicit machine holds, in the entry module or a callee.
#[test]
fn oversized_machines_exit_cleanly() {
    let dir = std::env::temp_dir().join("squarec_test_oversized");
    std::fs::create_dir_all(&dir).unwrap();
    let huge = dir.join("huge.sq");
    std::fs::write(
        &huge,
        "entry module main(0 params, 268435456 ancilla) {\n  compute { x a0; }\n}\n",
    )
    .unwrap();
    // 2^62 ancillas: collecting one id each would overflow a `Vec`'s
    // capacity (a panic, exit 101) instead of requesting 1 GB.
    let huge_entry = dir.join("huge_entry.sq");
    std::fs::write(
        &huge_entry,
        "entry module main(0 params, 4611686018427387904 ancilla) {\n  compute { x a0; }\n}\n",
    )
    .unwrap();
    let huge_callee = dir.join("huge_callee.sq");
    std::fs::write(
        &huge_callee,
        "module big(1 params, 4611686018427387904 ancilla) {\n  compute { cx p0 a0; }\n}\n\
         entry module main(0 params, 1 ancilla) {\n  compute { call big(a0); }\n}\n",
    )
    .unwrap();
    // Four calls to a 2^62-ancilla callee: the machine-sizing hint
    // saturates instead of wrapping to a small machine.
    let four_calls = dir.join("four_calls.sq");
    std::fs::write(
        &four_calls,
        "module big(1 params, 4611686018427387904 ancilla) {\n  compute { cx p0 a0; }\n}\n\
         entry module main(0 params, 1 ancilla) {\n  compute { call big(a0); call big(a0); \
         call big(a0); call big(a0); }\n}\n",
    )
    .unwrap();
    let adder = PathBuf::from("examples/sq/adder.sq");
    for (file, arch, code, message) in [
        (&adder, "grid:60000x60000", 2, "2^20"),
        (&adder, "ring:1048577", 2, "2^20"),
        (&huge, "nisq", 1, "2^20"),
        (&four_calls, "nisq", 1, "machine too large"),
        // An explicit machine too small for a frame: refused before
        // one id per declared ancilla is collected.
        (&huge_entry, "grid:4x4", 1, "out of qubits"),
        (&huge_callee, "grid:4x4", 1, "out of qubits"),
    ] {
        let out = squarec()
            .arg(file)
            .args(["--arch", arch])
            .output()
            .expect("squarec runs");
        assert_eq!(out.status.code(), Some(code), "{}: {arch}", file.display());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{arch}: {stderr}");
    }
}

/// A chain of modules whose entry nests `levels` calls: `m0` is the
/// leaf, each `m{k}` calls `m{k-1}`, and `main` calls the last.
fn call_chain(levels: usize) -> String {
    let mut src = String::from("module m0(1 params, 0 ancilla) {\n  compute { x p0; }\n}\n");
    for k in 1..levels {
        src.push_str(&format!(
            "module m{k}(1 params, 0 ancilla) {{\n  compute {{ call m{}(p0); }}\n}}\n",
            k - 1
        ));
    }
    src.push_str(&format!(
        "entry module main(0 params, 1 ancilla) {{\n  compute {{ call m{}(a0); }}\n}}\n",
        levels - 1
    ));
    src
}

/// A call chain one level past the depth bound is a compile error
/// (exit 1), not a stack overflow; one at the bound compiles.
#[test]
fn call_chains_past_the_depth_bound_exit_cleanly() {
    let dir = std::env::temp_dir().join("squarec_test_depth");
    std::fs::create_dir_all(&dir).unwrap();
    for (levels, code) in [
        (square_core::MAX_CALL_DEPTH, 0),
        (square_core::MAX_CALL_DEPTH + 1, 1),
    ] {
        let file = dir.join(format!("chain{levels}.sq"));
        std::fs::write(&file, call_chain(levels)).unwrap();
        let out = squarec()
            .arg(&file)
            .args(["--all-policies", "--validate"])
            .output()
            .expect("squarec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{levels} levels: {stderr}");
        if code == 1 {
            assert!(
                stderr.contains(&format!(
                    "calls too deep: the entry module nests calls {levels} levels deep, \
                     over the limit of {}",
                    square_core::MAX_CALL_DEPTH
                )),
                "{stderr}"
            );
        }
    }
}

/// A fresh temporary directory holding `files` as `(name, source)`.
fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, source) in files {
        std::fs::write(dir.join(file), source).unwrap();
    }
    dir
}

/// A root named without a directory (`squarec prog.sq`) searches the
/// working directory for its imports, as `squarec ./prog.sq` does.
#[test]
fn a_bare_root_name_imports_from_its_own_directory() {
    let dir = temp_tree(
        "squarec_test_bare_root",
        &[
            (
                "prog.sq",
                "import helper;\n\
                 entry module main(0 params, 1 ancilla) {\n  compute { call flip(a0); }\n}\n",
            ),
            (
                "helper.sq",
                "module flip(1 params, 0 ancilla) {\n  compute { x p0; }\n}\n",
            ),
        ],
    );
    for root in ["prog.sq", "./prog.sq"] {
        let out = Command::new(env!("CARGO_BIN_EXE_squarec"))
            .current_dir(&dir)
            .args([root, "--emit", "listing"])
            .output()
            .expect("squarec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{root}: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("module flip("),
            "{root}"
        );
    }
}

/// A file imported by an imported file is shown beside its importer,
/// as the root's own imports are, not under its canonical path.
#[test]
fn second_level_imports_keep_the_relative_path() {
    let dir = temp_tree("squarec_test_nested_names", &[]);
    let nest = dir.join("nest");
    std::fs::create_dir(&nest).unwrap();
    let files = [
        (
            "a.sq",
            "import b;
entry module main(0 params, 1 ancilla) {
  compute { call f(a0); }
}
",
        ),
        (
            "b.sq",
            "import c;
module f(1 params, 0 ancilla) {
  compute { call g(p0); }
}
",
        ),
        (
            "c.sq",
            "module g(1 params, 0 ancilla) {
  compute { x p7; }
}
",
        ),
    ];
    for (file, source) in files {
        std::fs::write(nest.join(file), source).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_squarec"))
        .current_dir(&dir)
        .arg("nest/a.sq")
        .output()
        .expect("squarec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--> nest/c.sq:2:"), "{stderr}");
    assert!(!stderr.contains(&*dir.to_string_lossy()), "{stderr}");
}

/// A symlinked library resolves its own imports in the directory it
/// really lives in, not beside the link, and a sibling found there is
/// shown under its real path.
#[cfg(unix)]
#[test]
fn a_symlinked_library_imports_its_real_sibling() {
    let dir = temp_tree("squarec_test_symlinked_lib", &[]);
    let (app, real) = (dir.join("app"), dir.join("real"));
    std::fs::create_dir(&app).unwrap();
    std::fs::create_dir(&real).unwrap();
    let prog = "import lib2;
entry module main(0 params, 1 ancilla) {
  compute { call f(a0); }
}
";
    std::fs::write(app.join("prog.sq"), prog).unwrap();
    std::fs::write(
        real.join("lib2.sq"),
        "import sib;
module f(1 params, 0 ancilla) {
  compute { call g(p0); }
}
",
    )
    .unwrap();
    std::os::unix::fs::symlink(real.join("lib2.sq"), app.join("lib2.sq")).unwrap();
    // A different `sib.sq` beside the link: not the library's sibling.
    std::fs::write(
        app.join("sib.sq"),
        "this does not parse
",
    )
    .unwrap();
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_squarec"))
            .current_dir(&dir)
            .args(["app/prog.sq", "--emit", "listing"])
            .output()
            .expect("squarec runs")
    };
    std::fs::write(
        real.join("sib.sq"),
        "module g(1 params, 0 ancilla) {
  compute { x p0; }
}
",
    )
    .unwrap();
    let out = run();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("module g("));
    std::fs::write(
        real.join("sib.sq"),
        "module g(1 params, 0 ancilla) {
  compute { x p7; }
}
",
    )
    .unwrap();
    let out = run();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let real_sib = std::fs::canonicalize(real.join("sib.sq")).unwrap();
    assert!(
        stderr.contains(&format!("--> {}:2:", real_sib.display())),
        "{stderr}"
    );
}

/// A library that imports the root meets the root itself, already
/// loaded, and the cycle names each file once, under one spelling.
#[test]
fn a_library_importing_the_root_is_one_cycle() {
    let dir = temp_tree(
        "squarec_test_root_cycle",
        &[
            (
                "prog.sq",
                "import lib2;\n\
                 entry module main(0 params, 1 ancilla) {\n  compute { call flip(a0); }\n}\n",
            ),
            (
                "lib2.sq",
                "import prog;\nmodule flip(1 params, 0 ancilla) {\n  compute { x p0; }\n}\n",
            ),
        ],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_squarec"))
        .current_dir(&dir)
        .arg("./prog.sq")
        .output()
        .expect("squarec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("import cycle: ./prog.sq → ./lib2.sq → ./prog.sq"),
        "{stderr}"
    );
    assert_eq!(stderr.matches("error:").count(), 1, "{stderr}");
}

#[test]
fn dumped_catalog_round_trips_through_the_driver() {
    let dir = std::env::temp_dir().join("squarec_test_catalog");
    let _ = std::fs::remove_dir_all(&dir);
    let out = squarec()
        .arg("--dump-catalog")
        .arg(&dir)
        .output()
        .expect("squarec runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dumped: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(dumped.len(), 17, "one .sq per catalog benchmark");
    // Round-trip the cheap files through the driver (listing mode so
    // nothing compiles; the full compile equivalence is tested below).
    let small: Vec<&PathBuf> = dumped
        .iter()
        .filter(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
            Benchmark::NISQ
                .iter()
                .any(|b| square_workloads::sq_file_stem(*b) == stem)
        })
        .collect();
    assert_eq!(small.len(), 7);
    let out = squarec()
        .args(&small)
        .args(["--roundtrip", "--emit", "listing"])
        .output()
        .expect("squarec runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Field-by-field comparison of everything the evaluation consumes.
fn assert_reports_identical(a: &CompileReport, b: &CompileReport, what: &str) {
    assert_eq!(a.gates, b.gates, "{what}: gates");
    assert_eq!(a.swaps, b.swaps, "{what}: swaps");
    assert_eq!(a.depth, b.depth, "{what}: depth");
    assert_eq!(a.qubits, b.qubits, "{what}: qubits");
    assert_eq!(a.peak_active, b.peak_active, "{what}: peak_active");
    assert_eq!(a.aqv, b.aqv, "{what}: aqv");
    assert_eq!(a.comm_factor, b.comm_factor, "{what}: comm_factor");
    assert_eq!(a.machine_qubits, b.machine_qubits, "{what}: machine_qubits");
    assert_eq!(a.decisions, b.decisions, "{what}: decision stats");
    assert_eq!(a.decision_log, b.decision_log, "{what}: decision log");
    assert_eq!(a.entry_register, b.entry_register, "{what}: entry register");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    assert_eq!(a.trace, b.trace, "{what}: trace");
}

fn check_compile_equivalence(benches: &[Benchmark]) {
    for &bench in benches {
        let program = build(bench).expect("benchmark builds");
        let parsed = square_lang::parse_program(&program_listing(&program))
            .unwrap_or_else(|d| panic!("{bench}: listing failed to parse: {d:?}"));
        assert_eq!(parsed, program, "{bench}: round-trip changed the program");
        for policy in Policy::ALL {
            let config = CompilerConfig::nisq(policy);
            let direct = compile(&program, &config).expect("in-memory compile");
            let via_sq = compile(&parsed, &config).expect(".sq compile");
            assert_reports_identical(&direct, &via_sq, &format!("{bench}/{}", policy.cli_name()));
        }
    }
}

#[test]
fn catalog_compiles_identically_through_sq_nisq_set() {
    check_compile_equivalence(&Benchmark::NISQ);
}

#[test]
#[ignore = "full catalog × 4 policies: run with --ignored (release)"]
fn catalog_compiles_identically_through_sq_full() {
    check_compile_equivalence(&Benchmark::ALL);
}
