//! The repository benchmark: runs one named workload against the library's
//! public API, checks every outcome, and prints its metrics by name and
//! unit, the last stdout line being one JSON object. See README.md.
//!
//! ```text
//! perfbench --workload catalog-matrix|steady-scale|loaded-checked
//!           --seed N --seconds S --trace 0|1
//! ```

mod calib;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Metric, Outcome, Spec};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_lines(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<36} {:>14.4} {:<12} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Writes the spans of a traced run under this package's `out/` directory.
fn write_spans(args: &Args, outcome: &Outcome) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let mut text = outcome.spans.join("\n");
    text.push('\n');
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = workloads::run(
        &args.workload,
        &Spec::default(),
        args.seed,
        args.seconds,
        args.trace,
    )
    .expect("workload name was validated");
    if args.trace {
        write_spans(&args, &outcome);
    }
    for error in &outcome.errors {
        eprintln!("perfbench: {error}");
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    let mode = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "workload {} seed {} ({} s, {mode}): {} attempted, {} failed",
        args.workload, args.seed, args.seconds, outcome.attempted, outcome.failed
    );
    print_lines("metrics:", &outcome.metrics);
    print_lines("workload figures (not in the JSON):", &outcome.extras);
    let attempted = outcome.attempted.max(1);
    println!(
        "{}",
        result_line(correct, attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Json;

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let metrics = [Metric {
            name: "setup_s".into(),
            value: 1e-7,
            unit: "s",
            samples: 21,
        }];
        let json = Json::parse(&result_line(true, 3, 0, &metrics)).expect("valid JSON");
        let Json::Obj(fields) = &json else {
            panic!("not an object: {json:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|s| s.get("value")).and_then(Json::as_f64),
            Some(1e-7)
        );
        assert_eq!(
            setup.and_then(|s| s.get("unit")).and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload steady-scale --seed 7 --seconds 30 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 30.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload steady-scale --trace 2").is_err());
        assert!(args("--workload steady-scale --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}
