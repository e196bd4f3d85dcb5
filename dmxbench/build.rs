//! Stamps the binary with the compiler and profile that built it, so
//! every result names the build it came from.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=DMXBENCH_RUSTC={version}");
    for (key, var) in [
        ("DMXBENCH_PROFILE", "PROFILE"),
        ("DMXBENCH_OPT_LEVEL", "OPT_LEVEL"),
        ("DMXBENCH_DEBUG", "DEBUG"),
    ] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
