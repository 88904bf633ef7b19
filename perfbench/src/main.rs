//! The LINGUIST-86 reproduction's benchmark.
//!
//! ```text
//! perfbench --workload compile|translate|aot|serve --seed N --seconds S --trace 0|1
//!           [--linguist PATH]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it repeats the workload calling each layer's public functions one at
//! a time inside spans, and prints every per-layer metric. The last line
//! of standard output is the JSON result. The exit code is 0 only if
//! every output was correct. `perfbench/run.py` builds the program and
//! this binary and then runs it.

mod inproc;
mod inputs;
mod metrics;
mod serve;
mod speed;
mod stats;
mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Fresh processes whose set-up is timed; `setup_s` is their median.
const SETUP_PROBES: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    linguist: Option<PathBuf>,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        linguist: None,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--linguist" => a.linguist = Some(PathBuf::from(value()?)),
            "--setup-probe" => a.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["compile", "translate", "aot", "serve"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if a.workload == "serve" && a.linguist.is_none() {
        return Err("the serve workload needs --linguist PATH".into());
    }
    Ok(a)
}

/// Time the in-process workload's set-up in `SETUP_PROBES` fresh
/// processes, so one-time initialisation is paid every time. Each probe
/// reports `(reference-speed seconds, raw seconds)`.
fn probe_setup(a: &Args) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    &a.workload,
                    "--seed",
                    &a.seed.to_string(),
                    "--setup-probe",
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let nums: Vec<f64> = text
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            match nums[..] {
                [conv, raw] => Ok((conv, raw)),
                _ => Err(format!("setup probe printed `{}`", text.trim())),
            }
        })
        .collect()
}

fn setup_once(a: &Args) -> (f64, f64) {
    match a.workload.as_str() {
        "compile" => inproc::compile_setup_probe(a.seed),
        "translate" => inproc::lang_setup_probe(a.seed, false),
        _ => inproc::lang_setup_probe(a.seed, true),
    }
}

fn run(a: &Args) -> Result<bool, String> {
    if a.setup_probe {
        let (conv, raw) = setup_once(a);
        println!("{conv} {raw}");
        return Ok(true);
    }
    let mut out = Outcome::default();
    if a.workload == "serve" {
        let linguist = a.linguist.as_ref().expect("checked in parse_args");
        serve::run(linguist, a.seed, a.seconds, a.trace, &mut out)?;
    } else {
        if !a.trace {
            let probes = probe_setup(a)?;
            let conv: Vec<f64> = probes.iter().map(|p| p.0).collect();
            let raw: Vec<f64> = probes.iter().map(|p| p.1).collect();
            out.put(
                "setup_s",
                stats::median(&conv),
                probes.len(),
                format!(
                    "median over fresh processes, warm-up included, at reference speed (raw {:.6} s)",
                    stats::median(&raw)
                ),
            );
        }
        match a.workload.as_str() {
            "compile" => inproc::compile(a.seed, a.seconds, a.trace, &mut out),
            "translate" => inproc::translate(a.seed, a.seconds, a.trace, false, &mut out),
            _ => inproc::translate(a.seed, a.seconds, a.trace, true, &mut out),
        }
    }
    if a.trace {
        metrics::emit(&a.workload, &out, metrics::PER_LAYER, true)
    } else {
        metrics::emit(&a.workload, &out, metrics::END_TO_END, false)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
