//! `mebl-shard` — sharded panel routing at stitch boundaries.
//!
//! The stitch model already partitions the die into stripe panels; this
//! crate makes that partition the unit of scale-out, mirroring how an
//! MCC writer's column cells expose region-parallel throughput in
//! hardware. A circuit is split at its stitching lines into independent
//! panel jobs ([`split`]), each panel routes as an ordinary job, and
//! the fragments are stitched back into one full-die outcome with seam
//! bridges at fixed crossing terminals ([`merge`]).
//!
//! The decomposition is a pure function of `(circuit, stitch config)`;
//! the shard count only widens the worker pool the fixed job list runs
//! on. That is the whole determinism argument: sharded output is
//! byte-identical at every shard count (`tests/shard.rs` enforces it),
//! and the merged outcome passes `mebl-audit --strict`. The sharded pipeline is
//! its *own* deterministic algorithm — its output is not defined to
//! match a monolithic `Router::route` run, only to satisfy the same
//! hard MEBL legality contract (DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;
mod run;
mod split;

pub use merge::{merge_fragments, FragmentOutcome};
pub use run::{
    fragment_config, route_sharded, route_sharded_under, route_sharded_with, ShardError,
    ShardOptions, ShardedRun,
};
pub use split::{Crossing, NetPlace, PanelJob, ShardPlan, MIN_FRAGMENT_PERIOD};

#[cfg(test)]
mod tests {
    use super::*;
    use mebl_audit::audit_outcome;
    use mebl_netlist::{BenchmarkSpec, Circuit, GenerateConfig};
    use mebl_route::RouterConfig;

    fn small(name: &str, seed: u64, target_nets: usize) -> Circuit {
        let spec = BenchmarkSpec::by_name(name).expect("known benchmark");
        let net_scale = (target_nets as f64 / spec.nets as f64).min(1.0);
        spec.generate(&GenerateConfig {
            seed,
            net_scale,
            ..GenerateConfig::default()
        })
    }

    #[test]
    fn sharded_run_is_shard_count_invariant_and_audit_clean() {
        let circuit = small("S5378", 7, 50);
        let base = route_sharded(&circuit, &ShardOptions::new(1)).expect("shards=1");
        assert!(base.jobs >= 2, "expected a multi-panel split, got {}", base.jobs);
        let config = RouterConfig::stitch_aware();
        let report = audit_outcome(&circuit, &config, &base.outcome);
        assert_eq!(report.error_count(), 0, "audit errors: {report:?}");
        assert_eq!(report.warning_count(), 0, "audit warnings: {report:?}");
        for shards in [2, 4] {
            let run = route_sharded(&circuit, &ShardOptions::new(shards)).expect("sharded");
            assert_eq!(
                format!("{:?}", run.outcome.detailed.geometry),
                format!("{:?}", base.outcome.detailed.geometry),
                "geometry differs at shards={shards}"
            );
            assert_eq!(run.outcome.detailed.routed, base.outcome.detailed.routed);
            assert_eq!(run.outcome.degradations, base.outcome.degradations);
        }
    }

    #[test]
    fn split_covers_every_net_exactly_once_per_owner() {
        let circuit = small("S9234", 3, 40);
        let plan = ShardPlan::new(&circuit, ShardOptions::new(1).stitch());
        let mut owners = vec![0usize; circuit.net_count()];
        for job in &plan.jobs {
            for &m in &job.members {
                owners[m] += 1;
            }
        }
        for (i, &count) in owners.iter().enumerate() {
            match plan.places[i] {
                NetPlace::Interior { .. } | NetPlace::Residual => assert_eq!(count, 1),
                NetPlace::Cut { first, last } => assert_eq!(count, last - first + 1),
            }
        }
    }
}
