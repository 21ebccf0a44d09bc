//! spotcache's benchmark: one command per workload, printing every
//! end-to-end metric (or, traced, every per-layer metric) with output
//! checks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <usr|etc> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! See `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod client;
mod dataplane;
mod gen;
mod host;
mod replan;
mod report;
mod spans;
mod stats;

use std::process::ExitCode;

use crate::dataplane::Kind;
use crate::host::Host;
use crate::report::Report;
use crate::spans::Spans;

const USAGE: &str = "usage: perfbench --workload <usr|etc> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "usr" => "usr",
                    "etc" => "etc",
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace is 0 or 1, not {n}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's kept spans as Chrome trace-event JSON under
/// the build directory (`$CARGO_TARGET_DIR`, else `perfbench/target`).
pub(crate) fn write_trace(workload: &str, spans: &Spans) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench");
    let path = dir.join(format!("trace-{workload}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.chrome_json())) {
        Ok(()) => println!("trace {}", path.display()),
        Err(e) => println!("trace not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let host = Host::read();
    let mut rep = Report::new(args.workload, args.trace);
    let seconds = args.seconds as f64;
    let ran = match args.workload {
        "usr" => dataplane::run(Kind::Usr, args.seed, seconds, args.trace, &mut rep),
        _ => dataplane::run(Kind::Etc, args.seed, seconds, args.trace, &mut rep),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} did not complete: {e}", args.workload);
        return ExitCode::from(1);
    }
    rep.print(&host);
    ExitCode::SUCCESS
}
