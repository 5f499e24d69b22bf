//! CI gate for the xct-verify layers: sweeps the generator corpus (every
//! producible plan must verify cleanly), the must-reject table
//! (`xct_verify::corpus::MUST_REJECT`: every static artifact rejected
//! with the witness the table lists), and the schedule explorer on fixed
//! seeds (the timing bug must be caught and be seed-reproducible; its
//! post-mortem run document goes to `RUN_REPORT_OUT`). Exits nonzero on
//! any miss; designed to finish well under a minute.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use xct_comm::{CompiledPlans, HierarchicalPlan, Topology};
use xct_plan::RunDocument;
use xct_verify::corpus::{aliased_reply_exchange, gen_case, single_sweep_gather, MUST_REJECT};
use xct_verify::{explore, verify_all_hierarchical};

fn check(name: &str, ok: bool, failures: &mut Vec<String>) {
    if ok {
        println!("  ok   {name}");
    } else {
        println!("  FAIL {name}");
        failures.push(name.to_string());
    }
}

fn main() {
    let started = Instant::now();
    let mut failures: Vec<String> = Vec::new();

    println!("generator corpus (every producible plan verifies):");
    let mut cases = 0usize;
    let mut bad_cases = 0usize;
    for seed in 0..64u64 {
        let case = gen_case(seed);
        let (fp, own, topo) = (&case.footprints, &case.ownership, &case.topology);
        // Direct exchange is the flat plan, run on the case's machine.
        for plan_topo in [Topology::new(topo.size(), 1, 1), *topo] {
            let plan = HierarchicalPlan::build(fp, own, &plan_topo);
            let compiled = CompiledPlans::compile_hierarchical(fp, own, &plan);
            for overlap in [false, true] {
                if !verify_all_hierarchical(fp, own, topo, &plan, &compiled, overlap).ok() {
                    failures.push(format!("seed {seed} plan {plan_topo} overlap={overlap}"));
                    bad_cases += 1;
                }
                cases += 1;
            }
        }
    }
    let generated_ok = bad_cases == 0;
    check(
        &format!("{cases} generated plan checks"),
        generated_ok,
        &mut Vec::new(),
    );

    println!("must-reject table (each static artifact rejected with its witness):");
    for row in MUST_REJECT {
        check(row.name, row.check().is_ok(), &mut failures);
    }

    println!("schedule explorer (fixed seeds, failures reproducible):");
    let n = 4;
    let expect: f64 = (1..=n).map(|r| r as f64).sum();
    let gather_oracle = move |results: &[f64]| {
        results
            .iter()
            .enumerate()
            .find_map(|(r, &v)| (v != expect).then(|| format!("rank {r} got {v}")))
    };
    let seeds: Vec<u64> = (0..48).collect();
    let report = explore(
        n,
        Duration::from_secs(10),
        &seeds,
        |c| single_sweep_gather(c, 0x5000),
        gather_oracle,
    );
    check(
        "single-sweep gather passes baseline",
        report.outcomes[0].failure.is_none(),
        &mut failures,
    );
    let caught = report.first_failure();
    check(
        "single-sweep gather caught by a chaos schedule",
        caught.is_some(),
        &mut failures,
    );
    if let Some(fail) = caught {
        println!("       reproduce with: {}", fail.label);
        // Every failing chaos schedule must yield a post-mortem: the
        // seed re-runs deterministically, traced.
        check(
            "failing schedule produced a post-mortem",
            fail.flight_dump.is_some(),
            &mut failures,
        );
        if let Some(dump) = &fail.flight_dump {
            check(
                "the post-mortem reads as a run document",
                RunDocument::parse(dump).is_ok(),
                &mut failures,
            );
            let out = std::env::var("RUN_REPORT_OUT")
                .unwrap_or_else(|_| "target/explore_report.json".to_owned());
            if let Some(parent) = std::path::Path::new(&out).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(&out, dump) {
                Ok(()) => println!("       post-mortem written to {out}"),
                Err(e) => {
                    println!("  FAIL writing the post-mortem to {out}: {e}");
                    failures.push(format!("post-mortem write: {e}"));
                }
            }
        }
    }
    let expect3: f64 = (1..=3).map(|r| r as f64).sum();
    let reply_oracle = move |results: &[(f64, f64)]| {
        results.iter().enumerate().find_map(|(r, &(red, sen))| {
            (red != expect3 || sen != -1.0).then(|| format!("rank {r}: ({red}, {sen})"))
        })
    };
    let aliased = explore(
        3,
        Duration::from_secs(5),
        &[],
        |c| aliased_reply_exchange(c, 0x7000, 0x7001),
        reply_oracle,
    );
    check(
        "aliased reply exchange fails at baseline",
        aliased
            .first_failure()
            .is_some_and(|f| f.label == "baseline"),
        &mut failures,
    );

    let elapsed = started.elapsed();
    println!("verify corpus finished in {:.2?}", elapsed);
    if failures.is_empty() {
        println!("all checks passed");
    } else {
        println!("{} check(s) failed:", failures.len());
        for f in &failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
