//! The simulator's service draws call no libm.
//!
//! A std transcendental's last bit is the host libm's, so a draw that
//! calls one is a function of the host as well as of the seed.
//! `cn_stats::detmath`, the `Dist::sample_portable` family built on it and
//! the DES's one service draw (`ServicePlan::draw`) must compute the same
//! bits on every host. This test reads their source and fails on any call
//! to `ln`, `exp`, `cos`, `sin`, `powf`, `powi`, `exp2` or a `log*`.

use std::path::Path;

/// Method calls and `f64::` paths of the std transcendentals.
const NAMES: [&str; 12] = [
    "ln", "ln_1p", "exp", "exp2", "exp_m1", "cos", "sin", "sin_cos", "tan", "powf", "powi", "log",
];

/// The forbidden calls in `code`, comments stripped.
fn libm_calls(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    for line in code.lines() {
        let line = line.split("//").next().unwrap_or_default();
        for name in NAMES {
            // `log` stands for `log`, `log2`, `log10`: a prefix.
            let method = if name == "log" {
                ".log".to_string()
            } else {
                format!(".{name}(")
            };
            if line.contains(&method) || line.contains(&format!("f64::{name}")) {
                found.push(line.trim().to_string());
            }
        }
    }
    found
}

fn source(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of the function whose signature starts with `signature`, up to
/// the closing brace at its own indentation.
fn function<'a>(code: &'a str, signature: &str) -> &'a str {
    let start = code
        .find(signature)
        .unwrap_or_else(|| panic!("no `{signature}`"));
    let indent = &code[code[..start].rfind('\n').map_or(0, |i| i + 1)..start];
    let end = code[start..]
        .find(&format!("\n{indent}}}\n"))
        .unwrap_or_else(|| panic!("`{signature}` never closes"));
    &code[start..start + end]
}

#[test]
fn service_draws_call_no_std_transcendental() {
    // The scanner itself sees both call forms.
    assert_eq!(
        libm_calls("let y = x.ln() + f64::exp(z); // x.cos()").len(),
        2
    );
    assert!(libm_calls("let v = r.expect(\"x\").len(); // f64::ln").is_empty());

    let detmath = source("crates/cn-stats/src/detmath.rs");
    let kernels = detmath.split("#[cfg(test)]").next().unwrap_or_default();
    let dist = source("crates/cn-stats/src/dist/mod.rs");
    let gamma = source("crates/cn-stats/src/dist/gamma.rs");
    let des = source("crates/cn-mcn/src/des.rs");
    let scanned = [
        ("detmath.rs", kernels),
        (
            "Dist::sample_portable",
            function(&dist, "pub fn sample_portable"),
        ),
        (
            "Gamma::sample_portable",
            function(&gamma, "pub(crate) fn sample_portable"),
        ),
        ("ServicePlan::draw", function(&des, "fn draw(&self")),
    ];
    for (what, code) in scanned {
        assert!(code.contains("rng"), "{what}: the scan found no draw");
        let calls = libm_calls(code);
        assert!(calls.is_empty(), "{what} calls libm: {calls:#?}");
    }
}
