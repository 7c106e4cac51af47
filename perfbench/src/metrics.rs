//! The benchmark's metric vocabulary. `BENCHMARK.json` lists the same
//! names; a unit test keeps the two in step.
//!
//! Every run prints every metric of its kind: the end-to-end set when
//! untraced, the per-layer set when traced. A per-layer metric of a layer
//! the workload does not exercise reads 0.

/// A metric a user of the system sees. The meaning of the throughput and
/// quality figures depends on the workload's kind. Throughput counts CPU
/// time rather than wall time, because host steal moves wall-clock rates
/// on a shared VM by more than any bound (see `crate::cpu`); wall-clock
/// rates and latencies are printed as report lines.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub on_train: &'static str,
    pub on_serve: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        on_train: "median of 9 set-ups: open .mbds + to_dataset, leave-one-out split, sampler, test candidates",
        on_serve: "median of 3 set-ups, one per round: open .mbds + to_dataset, model + compile, IVF build/attach, session store, Server::start",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        on_train: "peak resident set after fixture generation, in a process running only this workload",
        on_serve: "peak resident set after fixture generation, in a process running only this workload",
    },
    EndToEnd {
        name: "throughput_per_cpu_s",
        unit: "1/cpu-s",
        better: "higher",
        on_train: "train instances per CPU-second the process used in Trainer::fit, median over the fits the host left alone",
        on_serve: "replies per CPU-second the process used, median over the rounds the host left alone (closed loop, one client per core, no think time)",
    },
    EndToEnd {
        name: "quality_at10",
        unit: "ratio",
        better: "higher",
        on_train: "test NDCG@10, leave-one-out, 1 positive vs 99 sampled negatives",
        on_serve: "recall@10 of served replies against the exhaustive engine, on a seeded sample",
    },
];

/// A metric of one layer, with the end-to-end metric it should move and
/// the workload on which it should move it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

macro_rules! per_layer {
    ($($name:literal $unit:literal $better:literal $layer:literal => $moves:literal;)*) => {
        pub const PER_LAYER: &[PerLayer] = &[
            $(PerLayer { name: $name, unit: $unit, better: $better, layer: $layer, moves: $moves },)*
        ];
    };
}

per_layer! {
    "data.open_ms" "ms" "lower" "mbssl-data" => "setup_s on every workload (largest data share on serve-*)";
    "data.split_ms" "ms" "lower" "mbssl-data" => "setup_s on train";
    "data.prepare_batch_us" "us" "lower" "mbssl-data" => "throughput_per_cpu_s on train, only once it outgrows the step (prefetch overlaps it)";
    "model.forward_us" "us" "lower" "model" => "throughput_per_cpu_s on train";
    "tensor.backward_us" "us" "lower" "mbssl-tensor" => "throughput_per_cpu_s on train";
    "tensor.optim_us" "us" "lower" "mbssl-tensor" => "throughput_per_cpu_s on train";
    "tensor.alloc_hit_pct" "%" "higher" "mbssl-tensor" => "throughput_per_cpu_s on every workload";
    "tensor.pool_jobs_per_step" "count" "lower" "mbssl-tensor" => "throughput_per_cpu_s on train";
    "recommender.evaluate_ms" "ms" "lower" "recommender" => "throughput_per_cpu_s on train (validation inside fit)";
    "infer.compile_ms" "ms" "lower" "infer" => "setup_s on serve-*";
    "infer.encode_us" "us" "lower" "infer" => "throughput_per_cpu_s on serve-cold; on serve-zipf only for cache misses";
    "infer.rank_us" "us" "lower" "infer" => "throughput_per_cpu_s, mostly on serve-cold";
    "ann.build_ms" "ms" "lower" "ann" => "setup_s on serve-zipf";
    "ann.probe_us" "us" "lower" "ann" => "throughput_per_cpu_s on serve-zipf";
    "ann.candidates_per_query" "count" "lower" "ann" => "throughput_per_cpu_s against quality_at10 on serve-zipf";
    "ann.used_pct" "%" "higher" "ann" => "throughput_per_cpu_s against quality_at10 on serve-zipf";
    "serve.session_load_ms" "ms" "lower" "serve" => "setup_s on serve-*";
    "serve.snapshot_us" "us" "lower" "serve" => "throughput_per_cpu_s on serve-*";
    "serve.ingest_us" "us" "lower" "serve" => "throughput_per_cpu_s on serve-zipf";
    "serve.queue_p50_us" "us" "lower" "serve" => "wall-clock latency p50 on serve-* (end-to-end p50 minus direct-call layers)";
    "serve.queue_p90_us" "us" "lower" "serve" => "wall-clock latency p90 on serve-* (end-to-end p90 minus direct-call layers)";
    "serve.stats_queue_p50_us" "us" "lower" "serve" => "wall-clock latency p50 on serve-* (ServeStats queue stage, cross-check)";
    "serve.stats_queue_p90_us" "us" "lower" "serve" => "wall-clock latency p90 on serve-* (ServeStats queue stage, cross-check)";
    "serve.mean_batch" "count" "higher" "serve" => "throughput_per_cpu_s on serve-zipf";
    "serve.cache_hit_pct" "%" "higher" "serve" => "throughput_per_cpu_s on serve-zipf (0 on serve-cold by construction)";
    "trace.unattributed_pct" "%" "lower" "bench" => "share of the traced wall time no layer call covers";
    "trace.overhead_pct" "%" "lower" "bench" => "traced wall time against the same work untraced";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    fn all_names() -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::Workload::ALL.iter().map(|w| w.name()))
            .collect()
    }

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let names = all_names();
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "invalid unit {unit:?}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            all_names().len(),
            "BENCHMARK.json declares other names"
        );
        for m in END_TO_END {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }
}
