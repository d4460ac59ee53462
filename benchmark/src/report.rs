//! Runs one workload — untraced for the end-to-end metrics, traced for
//! the per-layer ones — and reports it: every metric by name with its
//! unit, the harness's self-checks, a file under the output directory,
//! and as the last line of standard output the JSON object the pipeline
//! reads.

use crate::harness::{self, Observed, Repetition};
use crate::json::Json;
use crate::layers::{self, Loopbacks, Metrics};
use crate::observed;
use crate::procfs;
use crate::spec::{Better, Plan, Workload, END_TO_END, PER_LAYER, REP_NOMINAL_SECS};
use crate::stats::{median, spread};
use crate::trace::Spans;
use std::path::{Path, PathBuf};

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Above these the harness itself is suspect; a warning is printed.
const HARNESS_CPU_SHARE_MAX: f64 = 0.05;
const GEN_LATE_P99_MS_MAX: f64 = 2.0;

/// Everything derived from one [`Repetition`], by name.
fn derived(r: &Repetition, plan: &Plan) -> Vec<(&'static str, f64)> {
    vec![
        ("throughput_pps", plan.sat as f64 / r.sat.wall_s),
        ("one_down_pps", plan.one_down as f64 / r.one_down.wall_s),
        ("cpu_us_per_payment", r.sat.cpu_s * 1e6 / plan.sat as f64),
        ("setup_s", r.setup_s),
        ("paced_p50_ms", r.paced.percentile_ms(0.50)),
        ("paced_p95_ms", r.paced.percentile_ms(0.95)),
        ("paced_p99_ms", r.paced.percentile_ms(0.99)),
        ("paced_cpu_us_per_payment", r.paced.cpu_s * 1e6 / plan.paced as f64),
        ("gen_late_p99_ms", r.paced.gen_late_p99_ms),
        ("harness_cpu_share", r.paced.gen_cpu_s / r.paced.cpu_s),
        ("harness_cpu_share_sat", r.sat.gen_cpu_s / r.sat.cpu_s),
        ("sustain_ratio", r.sat.sustain_ratio),
        ("one_down_sustain_ratio", r.one_down.sustain_ratio),
        ("paced_markers", r.paced.latencies_ms.len() as f64),
        ("rss_hwm_mb", r.rss_hwm_mb),
    ]
}

/// Per-repetition values of everything [`derived`] from a set of
/// repetitions: one row per name, one column per repetition.
struct Series {
    names: Vec<&'static str>,
    rows: Vec<Vec<f64>>,
}

impl Series {
    fn of(reps: &[&Repetition], plan: &Plan) -> Series {
        let names: Vec<&'static str> =
            derived(&Repetition::default(), plan).into_iter().map(|(n, _)| n).collect();
        let mut rows = vec![Vec::with_capacity(reps.len()); names.len()];
        for r in reps {
            for (row, (_, value)) in rows.iter_mut().zip(derived(r, plan)) {
                row.push(value);
            }
        }
        Series { names, rows }
    }

    fn values(&self, name: &str) -> &[f64] {
        let i = self.names.iter().position(|n| *n == name).expect("a known series");
        &self.rows[i]
    }

    fn median(&self, name: &str) -> f64 {
        median(self.values(name))
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))])
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Repetition count for `--seconds`, and for a traced run which of the
/// repetitions are observed: the untraced one sits between the traced
/// ones, so that slow drift of the machine hits both alike.
fn schedule(opts: &Options) -> Vec<bool> {
    let reps = if opts.smoke {
        1
    } else {
        ((opts.seconds as f64 / REP_NOMINAL_SECS).round() as usize).max(1)
    };
    if !opts.traced {
        return vec![false; reps];
    }
    let traced = (reps / 2).max(1);
    let mut plan = vec![true; traced];
    plan.insert(traced / 2, false);
    plan
}

/// The budget: for each cost the drivers can price, (b) cost per operation
/// × (a) operations per payment, as a share of the traced repetitions'
/// CPU per payment `cpu_us`. What is left — threads, syscalls, queueing,
/// the generator — is the residual. `a` and `b` are the metrics of the
/// two kinds.
fn budget(
    workload: Workload,
    cpu_us: f64,
    a: &Metrics,
    b: &Metrics,
    lb: &Loopbacks,
) -> Vec<(&'static str, f64)> {
    let (stats, wire) = match workload {
        Workload::A1Tcp | Workload::A1Durable => (&lb.a1, "a1"),
        Workload::A2Funded => (&lb.a2, "a2"),
        Workload::A2Certs => (&lb.a2_certs, "a2_certs"),
    };
    let get = |m: &Metrics, name: &str| m.get(name).copied().unwrap_or(0.0);
    let wire_ns = get(b, &format!("wire.{wire}_encode_ns_per_payment"))
        + get(b, &format!("wire.{wire}_decode_ns_per_payment"));
    // The loopback cuts every batch by size; the real run's frames per
    // payment over the loopback's says how far it was from that.
    let frames_scale = get(a, "net.tx_frames_per_payment") / stats.frames_per_payment();
    let payments = stats.payments as f64;
    let us = [
        ("budget.wire_share", wire_ns * frames_scale / 1e3),
        // Every link byte is tagged once by the sender and once by the
        // receiver.
        (
            "budget.mac_share",
            2.0 * get(b, "hmac.tag_ns_per_kib") * get(a, "net.tx_bytes_per_payment") / 1024.0 / 1e3,
        ),
        (
            "budget.state_machine_share",
            (stats.step_ns - stats.crypto_ns) as f64 / payments * frames_scale / 1e3,
        ),
        // Signing is priced from the driver; verification is the pool's
        // own busy time, which the registry records directly. (Checks
        // submitted × driver cost per signature would overcount: most
        // checks a burst submits are verdict-cache hits.)
        (
            "budget.sign_verify_share",
            get(b, "schnorr.sign_us") * stats.signs as f64 / payments
                + get(a, "verify.us_per_payment"),
        ),
        (
            "budget.journal_wal_share",
            (get(b, "journal.encode_ns_per_record") + get(b, "wal.append_ns_per_record"))
                * get(a, "store.records_per_payment")
                / 1e3,
        ),
    ];
    let mut shares: Vec<(&'static str, f64)> = us
        .into_iter()
        .map(|(name, us)| (name, if cpu_us > 0.0 { us / cpu_us } else { 0.0 }))
        .collect();
    let priced: f64 = shares.iter().map(|(_, share)| share).sum();
    shares.push(("budget.residual_share", 1.0 - priced));
    shares
}

fn print_table(title: &str, rows: &[(&str, f64, &str)]) {
    println!("{title}");
    for (name, value, unit) in rows {
        println!("  {name:<42} {value:>16.4} {unit}");
    }
}

/// The traced run's metrics: (b) from the layer drivers, (a) as the median
/// over the observed repetitions, the traced repetitions' own end-to-end
/// figures, and the budget built from all three. Printed as it is built.
fn per_layer(
    workload: Workload,
    plan: &Plan,
    traced: &Series,
    untraced: &Series,
    observed: &[&Observed],
    layers: Option<(Metrics, Loopbacks)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let (mut m, loopbacks) = match layers {
        Some((m, loopbacks)) => (m, Some(loopbacks)),
        None => (Metrics::new(), None),
    };
    let per_rep: Vec<Metrics> = observed.iter().map(|o| observed::metrics(o, plan)).collect();
    let mut a = Metrics::new();
    if let Some(first) = per_rep.first() {
        for name in first.keys() {
            let values: Vec<f64> = per_rep.iter().map(|m| m[name]).collect();
            a.insert(name, median(&values));
        }
    }
    let traced_pps = traced.median("throughput_pps");
    let untraced_pps = untraced.median("throughput_pps");
    let cpu_us = traced.median("cpu_us_per_payment");
    m.insert("traced.throughput_pps", traced_pps);
    m.insert("traced.cpu_us_per_payment", cpu_us);
    m.insert("traced.paced_p50_ms", traced.median("paced_p50_ms"));
    m.insert("traced.paced_p95_ms", traced.median("paced_p95_ms"));
    m.insert(
        "obs.traced_over_untraced",
        if untraced_pps > 0.0 { traced_pps / untraced_pps } else { 0.0 },
    );
    if let Some(lb) = &loopbacks {
        let shares = budget(workload, cpu_us, &a, &m, lb);
        m.extend(shares);
    }
    m.extend(a);
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, m.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    print_table(
        "per-layer metrics (median of the traced repetitions; 0 = not applicable)",
        &metrics,
    );
    println!("  untraced throughput_pps in the same process: {untraced_pps:.0}");
    metrics
}

/// The untraced run's metrics, and into `detail` what the result file
/// keeps beyond them: per-repetition values and their spread. Prints the
/// metrics, the diagnostics and the harness's self-checks.
fn end_to_end(
    untraced: &Series,
    detail: &mut Vec<(String, Json)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|e| {
            let value = match e.name {
                // The first repetition's peak: a fresh process through one
                // repetition. Later ones add what the allocator retained,
                // which varies with thread-to-arena luck (README).
                "rss_peak_mb" => untraced.values("rss_hwm_mb").first().copied().unwrap_or(0.0),
                name => untraced.median(name),
            };
            (e.name, value, e.unit)
        })
        .collect();
    print_table(
        &format!("end-to-end metrics (median of {} repetitions)", untraced.rows[0].len()),
        &metrics,
    );
    let mut spreads = Vec::new();
    println!("self-checks and diagnostics (median; per repetition)");
    for name in &untraced.names {
        let values = untraced.values(name);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("  {name:<42} {:>16.4}   [{}]", median(values), shown.join(", "));
        detail.push((format!("per_repetition.{name}"), nums(values)));
        spreads.push((name.to_string(), Json::Num(spread(values))));
    }
    let shown: Vec<String> = END_TO_END
        .iter()
        .filter(|e| e.name != "rss_peak_mb")
        .map(|e| format!("{} {:.3}", e.name, spread(untraced.values(e.name))))
        .collect();
    println!("  rep_spread (IQR / median over repetitions): {}", shown.join(", "));
    detail.push(("rep_spread".to_string(), Json::Obj(spreads)));
    let share = untraced.median("harness_cpu_share");
    if share > HARNESS_CPU_SHARE_MAX {
        println!("  WARNING harness_cpu_share {share:.3} above {HARNESS_CPU_SHARE_MAX}: the generator is a visible part of what is measured");
    }
    let late = untraced.median("gen_late_p99_ms");
    if late > GEN_LATE_P99_MS_MAX {
        println!("  WARNING gen_late_p99_ms {late:.3} above {GEN_LATE_P99_MS_MAX}: the open loop ran late (see README, two shared cores)");
    }
    metrics
}

/// Runs `workload` and prints the report. True if every repetition
/// converged and conserved money.
pub fn run(workload: Workload, opts: &Options) -> bool {
    let plan = workload.plan(opts.smoke);
    let schedule = schedule(opts);
    let wal_dir = opts.out.join(format!("wal-{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        return false;
    }
    let mode = if opts.traced { "traced" } else { "untraced" };
    println!(
        "payment_path {} seed {} {mode}: {} repetitions of warm-up {} + paced {} at {}/s + sat {} + one_down {}",
        workload.name(),
        opts.seed,
        schedule.len(),
        plan.warmup,
        plan.paced,
        plan.paced_rate,
        plan.sat,
        plan.one_down
    );
    let environment = procfs::environment(&opts.out);
    let env_line: Vec<String> = environment.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("environment: {}", env_line.join(" "));

    let mut spans = Spans::new();
    let mut reps = Vec::new();
    for (i, &observed) in schedule.iter().enumerate() {
        // A fresh stream per repetition, all derived from `--seed`.
        let seed = opts.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        let name = format!("repetition.{i}.{}", if observed { "traced" } else { "untraced" });
        let (rep, ns) =
            spans.time(&name, |s| harness::run(workload, &plan, seed, observed, &wal_dir, s));
        let failed = rep.error.is_some();
        match &rep.error {
            Some(e) => println!("{name} FAILED: {e}"),
            None => println!(
                "{name}: {:.1} s, setup {:.3} s, paced p50 {:.3} ms, sat {:.0}/s, one_down {:.0}/s",
                ns as f64 / 1e9,
                rep.setup_s,
                rep.paced.percentile_ms(0.50),
                plan.sat as f64 / rep.sat.wall_s,
                plan.one_down as f64 / rep.one_down.wall_s
            ),
        }
        reps.push(rep);
        if failed {
            // The run is already incorrect; a second stall would only push
            // it past the pipeline's time limit.
            break;
        }
    }
    let schedule = &schedule[..reps.len()];
    let attempted: u64 = reps.iter().map(|r| r.submitted).sum::<u64>().max(1);
    let failed: u64 = reps.iter().filter(|r| r.error.is_some()).map(|r| r.submitted.max(1)).sum();
    let mut correct = failed == 0;

    let good = |traced: bool| -> Vec<&Repetition> {
        reps.iter()
            .zip(schedule)
            .filter(|(r, &t)| r.error.is_none() && t == traced)
            .map(|(r, _)| r)
            .collect()
    };
    let untraced = Series::of(&good(false), &plan);
    let traced = Series::of(&good(true), &plan);

    let mut detail: Vec<(String, Json)> = Vec::new();
    let metrics = if opts.traced {
        let observed: Vec<&Observed> =
            good(true).iter().filter_map(|r| r.observed.as_ref()).collect();
        let layers = spans.span("layers", |s| layers::run_all(opts.seed, &opts.out, s));
        if let Err(e) = &layers {
            println!("layer drivers FAILED: {e}");
            correct = false;
        }
        let metrics = per_layer(workload, &plan, &traced, &untraced, &observed, layers.ok());
        let trace_file = opts.out.join(format!("trace-{}.json", workload.name()));
        match std::fs::write(&trace_file, spans.to_json().render()) {
            Ok(()) => println!("spans: {} in {}", spans.spans().len(), trace_file.display()),
            Err(e) => {
                println!("cannot write {}: {e}", trace_file.display());
                correct = false;
            }
        }
        metrics
    } else {
        end_to_end(&untraced, &mut detail)
    };
    println!("attempted_ops {attempted} failed_ops {failed} correct {correct}");

    let metrics_json =
        Json::obj(metrics.iter().map(|(name, value, unit)| (*name, metric_json(*value, unit))));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json),
    ]);
    let mut file = vec![
        ("workload".to_string(), Json::Str(workload.name().to_string())),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("traced".to_string(), Json::Bool(opts.traced)),
        ("smoke".to_string(), Json::Bool(opts.smoke)),
        ("repetitions".to_string(), Json::Num(schedule.len() as f64)),
        (
            "environment".to_string(),
            Json::obj(environment.into_iter().map(|(k, v)| (k, Json::Str(v)))),
        ),
    ];
    file.extend(result.entries().iter().cloned());
    file.extend(detail);
    let path = result_path(&opts.out, workload, opts.traced);
    if let Err(e) = std::fs::write(&path, Json::Obj(file).render() + "\n") {
        println!("cannot write {}: {e}", path.display());
        correct = false;
    }
    // The pipeline reads the last line of standard output.
    println!("{}", result.render());
    correct
}

pub fn result_path(out: &Path, workload: Workload, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "result" };
    out.join(format!("{kind}-{}.json", workload.name()))
}

/// Reads one end-to-end metric out of a result file.
fn stored(dir: &Path, workload: Workload, metric: &str) -> Result<f64, String> {
    let path = result_path(dir, workload, false);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: the run was not correct", path.display()));
    }
    doc.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: no metric {metric}", path.display()))
}

/// Prints every end-to-end metric of every workload found in `dir`.
pub fn summarize(dir: &Path) {
    println!("\n{:<22}{}", "", Workload::ALL.map(|w| format!("{:>14}", w.name())).join(""));
    for e in &END_TO_END {
        let cells = Workload::ALL.map(|w| match stored(dir, w, e.name) {
            Ok(v) => format!("{v:>14.4}"),
            Err(_) => format!("{:>14}", "-"),
        });
        println!("{:<22}{}  {}", e.name, cells.join(""), e.unit);
    }
}

/// Compares two full runs: true if every end-to-end metric of every
/// workload has medians within its bound of each other.
pub fn compare(first: &Path, second: &Path) -> bool {
    let mut within = true;
    println!(
        "{:<12}{:<22}{:>14}{:>14}{:>9}{:>8}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for w in Workload::ALL {
        for e in &END_TO_END {
            match (stored(first, w, e.name), stored(second, w, e.name)) {
                (Ok(a), Ok(b)) => {
                    let change = if a != 0.0 { (b - a) / a } else { f64::INFINITY };
                    let ok = change.abs() <= e.bound;
                    within &= ok;
                    let worse = (change > 0.0) == (e.better == Better::Lower);
                    println!(
                        "{:<12}{:<22}{a:>14.4}{b:>14.4}{:>+8.1}%{:>7.0}%  {}",
                        w.name(),
                        e.name,
                        change * 100.0,
                        e.bound * 100.0,
                        match (ok, worse) {
                            (true, _) => "ok",
                            (false, true) => "OUTSIDE BOUND (worse)",
                            (false, false) => "OUTSIDE BOUND (better)",
                        }
                    );
                }
                (Err(e), _) | (_, Err(e)) => {
                    within = false;
                    println!("{:<12}{e}", w.name());
                }
            }
        }
    }
    within
}
