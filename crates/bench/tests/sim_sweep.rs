//! The seed-sweep test tier: the chaos catalog under the deterministic
//! simulator across many seeds, the committed replay-regression corpus,
//! and the sim-vs-threaded equivalence check.
//!
//! The wide sweeps are `--release`-only (`cargo test -p sss-bench --release
//! --test sim_sweep -- --include-ignored`, or the `sim-sweep` binary for a
//! report); a two-seed smoke sweep runs in every configuration so the tier
//! never goes silently stale.

use std::time::{Duration, Instant};

use sss_bench::scenarios::sss_scenarios;
use sss_bench::sim_sweep::{replay_corpus, run_corpus_entry, run_sim_sweep, SimSweepConfig};
use sss_workload::scenario::{run_scenario, run_scenario_sim, ChaosScenario, ScenarioExpectations};
use sss_workload::{EngineKind, WorkloadSpec};

fn sweep(seeds: u64) -> SimSweepConfig {
    SimSweepConfig {
        seeds,
        base_seed: 1,
        only: None,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Every configuration: a tiny sweep over the first two catalog entries
/// keeps the harness itself exercised by the default test tier.
#[test]
fn smoke_sweep_is_clean_and_replayable() {
    let report = run_sim_sweep(&sweep(2)).expect("catalog scenarios are valid");
    assert_eq!(report.results.len(), 2);
    assert!(report.passed(), "failures:\n{}", report.render());
}

/// The CI gate: 200 seeds across the whole catalog, every seed
/// checker-clean (external consistency included) and bit-exactly
/// replayable.
#[test]
#[cfg_attr(debug_assertions, ignore = "200-seed sweep: run with --release")]
fn two_hundred_seed_sweep_is_clean_and_replayable() {
    let report = run_sim_sweep(&sweep(200)).expect("catalog scenarios are valid");
    assert_eq!(report.results.len(), 200);
    assert!(report.passed(), "failures:\n{}", report.render());
}

/// A full smoke-scale scenario plus its external-consistency verdict costs
/// wall-clock seconds under the simulator, not minutes: virtual time jumps
/// over every protocol timeout instead of sleeping through it.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock budget assumes --release")]
fn external_consistency_checker_iteration_stays_under_ten_seconds() {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(64)
        .read_only_percent(50)
        .seed(11);
    let scenario = ChaosScenario::new("checker-budget", spec).ops_per_client(120);
    let started = Instant::now();
    let outcome = run_scenario_sim(EngineKind::Sss, &scenario, 11).expect("valid scenario");
    let wall = started.elapsed();
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);
    assert_eq!(outcome.consistency, Some(Ok(())), "checker must have run");
    assert!(
        wall <= Duration::from_secs(10),
        "one checker iteration took {wall:?}; the sim tier must stay fast"
    );
}

/// SSS's headline property on every simulated interleaving of the smoke
/// catalog: read-only transactions never abort.
#[test]
#[cfg_attr(debug_assertions, ignore = "multi-seed sweep: run with --release")]
fn read_only_transactions_never_abort_across_seeds() {
    for seed in 1..=24 {
        let spec = WorkloadSpec::new(3)
            .clients_per_node(2)
            .total_keys(64)
            .read_only_percent(50)
            .seed(seed);
        let scenario = ChaosScenario::new("abort-free-reads", spec).ops_per_client(60);
        let outcome = run_scenario_sim(EngineKind::Sss, &scenario, seed).expect("valid scenario");
        assert!(outcome.passed(), "seed {seed}: {:?}", outcome.violations);
        assert_eq!(
            outcome.read_only_aborts, 0,
            "seed {seed}: a read-only transaction aborted"
        );
    }
}

/// The committed corpus: named (scenario, seed) pairs must reproduce their
/// recorded history fingerprints exactly. A mismatch means an interleaving
/// changed — see `replay_corpus` for how to re-record deliberately.
#[test]
#[cfg_attr(debug_assertions, ignore = "seven full replays: run with --release")]
fn replay_corpus_fingerprints_are_reproduced() {
    for entry in replay_corpus() {
        let outcome = run_corpus_entry(&entry).expect("corpus scenarios are valid");
        assert!(
            outcome.passed(),
            "corpus entry {}: {:?}",
            entry.name,
            outcome.violations
        );
        assert_eq!(
            outcome.fingerprint(),
            entry.fingerprint,
            "corpus entry {} drifted: recorded {:#x}, replayed {:#x} \
             (an interleaving-affecting change must re-record the corpus)",
            entry.name,
            entry.fingerprint,
            outcome.fingerprint(),
        );
    }
}

/// The simulated and threaded runtimes agree on everything the runtimes are
/// supposed to leave invariant: for a fault-free scenario the whole
/// deterministic outcome summary (commit counts, read-only mix, checker
/// verdict) is identical — only scheduling-dependent diagnostics such as
/// retry counts may differ.
#[test]
#[cfg_attr(debug_assertions, ignore = "threaded run is slow in debug")]
fn sim_and_threaded_runtimes_agree_on_the_outcome_summary() {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(64)
        .read_only_percent(50)
        .seed(5);
    let scenario = ChaosScenario::new("runtime-equivalence", spec).ops_per_client(40);
    let threaded = run_scenario(EngineKind::Sss, &scenario).expect("valid scenario");
    let simulated = run_scenario_sim(EngineKind::Sss, &scenario, 5).expect("valid scenario");
    assert!(threaded.passed(), "threaded: {:?}", threaded.violations);
    assert!(simulated.passed(), "simulated: {:?}", simulated.violations);
    assert_eq!(
        threaded.summary(),
        simulated.summary(),
        "the runtime must not change what the workload commits"
    );
}

/// The baselines ride the same cluster host as SSS, so a plan that loses a
/// fifth of all messages turns on reliable delivery for them too: the
/// `lossy-link` catalog scenario runs checker-clean on the serializable
/// baselines, and Walter — whose PSI admits serialization cycles by design,
/// loss or not — still commits every transaction.
#[test]
fn baselines_survive_the_lossy_link_scenario() {
    let seed = 7;
    let lossy = sss_scenarios(true, seed)
        .into_iter()
        .find(|scenario| scenario.name == "lossy-link")
        .expect("catalog has a lossy-link scenario");
    for (kind, expect) in [
        (
            EngineKind::TwoPc,
            ScenarioExpectations::serializable_baseline(),
        ),
        (EngineKind::Walter, ScenarioExpectations::weak_baseline()),
        (
            EngineKind::Rococo,
            ScenarioExpectations::serializable_baseline(),
        ),
    ] {
        let scenario = lossy.clone().expect(expect);
        // ROCOCO runs unreplicated, as in the paper's comparison.
        let scenario = match kind {
            EngineKind::Rococo => scenario.replication(1),
            _ => scenario,
        };
        let outcome = run_scenario_sim(kind, &scenario, seed).expect("valid scenario");
        assert!(outcome.passed(), "{kind}: {:?}", outcome.violations);
        if expect.external_consistency {
            assert_eq!(
                outcome.consistency,
                Some(Ok(())),
                "{kind}: checker must run"
            );
        }
    }
}
