//! Command-line rejection of the retired host-engine flags.
//!
//! The simulator has one event engine, so the flags that used to pick an
//! engine or the memory model's reference access path are unknown
//! options now: each must exit 2 with usage on stderr, before any graph
//! work, like any other malformed command line.

use std::process::Command;

#[test]
fn retired_engine_flags_exit_2_with_usage() {
    let bins: [(&str, &[&str]); 2] = [
        (
            env!("CARGO_BIN_EXE_gramer-mine"),
            &["--demo", "--app", "3-cf"],
        ),
        (env!("CARGO_BIN_EXE_gramer-query"), &["--gen", "demo"]),
    ];
    for (flag, value) in [("epoch", "on"), ("access-path", "exact")] {
        let flag = format!("--{flag}");
        for (bin, base) in bins {
            let out = Command::new(bin)
                .args(base)
                .args([flag.as_str(), value])
                .output()
                .expect("run binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {stderr}");
            assert!(
                stderr.contains(&format!("unknown option: {flag}")),
                "{bin} {flag}: {stderr}"
            );
            assert!(stderr.contains("usage:"), "{bin} {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {flag}: mined anyway");
        }
    }
}
