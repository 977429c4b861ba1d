//! The benchmark binary refuses to measure in an environment that would
//! change what it measures, and on malformed arguments, before doing any
//! work and without printing a result.

use std::process::Command;

fn o2kbench(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_o2kbench"));
    cmd.args(args);
    for var in [
        "O2K_SCHED",
        "O2K_EXEC",
        "O2K_FAULT",
        "O2K_TRACE",
        "O2K_STACK_KB",
        "O2K_THREAD_PE_CAP",
    ] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("the benchmark binary runs")
}

#[test]
fn a_pinned_variable_refuses_the_run() {
    for var in ["O2K_SCHED", "O2K_FAULT", "O2K_STACK_KB"] {
        let out = o2kbench(&["--workload", "amr-p32"], &[(var, "1")]);
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(var), "{var}: the refusal names it: {err}");
    }
}

#[test]
fn a_bad_argument_exits_2_without_a_result() {
    let out = o2kbench(&["--workload", "nope"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
