//! The benchmark's vocabulary: workload names and every metric's name,
//! unit and direction. `BENCHMARK.json` at the root of the repository
//! repeats these and adds the regression bounds; a test holds the two in
//! step.

/// The seven workloads, in running order.
pub const WORKLOADS: [&str; 7] = [
    "sim_private",
    "sim_shared",
    "sim_capacity",
    "sim_writethrough",
    "dist_inproc",
    "dist_openloop_faults",
    "dist_tcp",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; reported by the untraced run, on
/// every workload, and never 0.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("refs_per_s", "refs/s"),
    lower("peak_rss_mb", "MB"),
    lower("sim_cycles_per_ref", "cycles"),
    lower("cmds_per_ref", "count"),
];

/// Single layers; reported by the traced run. A metric reads 0 on a
/// workload that never enters its layer.
pub const PER_LAYER: [MetricDef; 58] = [
    // Defined on some workloads only, or 0 when all is well, so they
    // cannot carry a bound; exact for a fixed seed.
    lower("failed_share", "share"),
    lower("model_err_pct", "%"),
    lower("latency_p50_vt", "vt"),
    lower("latency_p99_vt", "vt"),
    higher("max_rate_per_kvt", "1/kvt"),
    lower("workload.gen_ns_per_ref", "ns"),
    lower("workload.shared_share", "share"),
    lower("cache.probe_ns", "ns"),
    higher("cache.hit_ratio", "share"),
    lower("cache.tag_probes_per_ref", "count"),
    lower("core.func_ns_per_ref", "ns"),
    lower("core.useless_share", "share"),
    lower("core.broadcasts_per_ref", "count"),
    lower("core.deliveries_per_ref", "count"),
    lower("core.peak_queue_depth", "count"),
    lower("core.span.agent_start.self_share", "share"),
    lower("core.span.agent_on_network.self_share", "share"),
    lower("core.span.ctrl_protocol_open.self_share", "share"),
    lower("core.span.ctrl_queue.self_share", "share"),
    lower("interconnect.schedule_ns", "ns"),
    lower("interconnect.queueing_cycles_per_ref", "cycles"),
    lower("interconnect.span.net_dispatch.self_share", "share"),
    lower("interconnect.span.net_schedule.self_share", "share"),
    lower("interconnect.transport.line_ns_per_frame", "ns"),
    lower("interconnect.poll.tcp_ns_per_frame", "ns"),
    lower("sim.events_per_ref", "count"),
    lower("sim.host_ns_per_event", "ns"),
    lower("sim.engine_ns_per_ref", "ns"),
    lower("sim.span.engine_pop.self_share", "share"),
    lower("sim.span.event_issue.self_share", "share"),
    lower("sim.span.event_deliver_cache.self_share", "share"),
    lower("sim.span.event_deliver_module.self_share", "share"),
    lower("sim.span.unattributed_share", "share"),
    lower("sim.tracing_overhead_pct", "%"),
    lower("sim.j2_over_j1", "ratio"),
    lower("dist.wire.encode_ns_per_msg", "ns"),
    lower("dist.wire.decode_ns_per_msg", "ns"),
    lower("dist.wire.bytes_per_msg", "bytes"),
    lower("dist.inproc_ns_per_delivery", "ns"),
    lower("dist.deliveries_per_ref", "count"),
    higher("dist.hit_share", "share"),
    lower("dist.timeline_bytes_per_ref", "bytes"),
    lower("dist.queue_wait_p99_vt", "vt"),
    lower("dist.p99_vt.fixed240", "vt"),
    lower("dist.p99_vt.fixed120", "vt"),
    lower("dist.p99_vt.fixed90", "vt"),
    lower("dist.p99_vt.fixed60", "vt"),
    lower("dist.spawn_s", "s"),
    lower("dist.transport_ns_per_delivery", "ns"),
    lower("dist.retransmits_per_ref", "count"),
    lower("dist.retries_per_ref", "count"),
    lower("dist.client_drops", "count"),
    lower("dist.recoveries", "count"),
    lower("dist.heal_lag_vt", "vt"),
    lower("dist.crash_gap_vt", "vt"),
    lower("dist.history.check_ns_per_op", "ns"),
    lower("dist.history.states_per_op", "count"),
    lower("dist.history.share_of_wall", "share"),
];

/// The description of `name`, from either list.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_obs::json::{parse, Json};

    /// The contract's rule for a workload or metric name: it starts with a
    /// letter or a digit and holds at most 64 letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's rule for a unit: 1 to 16 letters, digits, `_`, `/`,
    /// `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_and_unit_charsets() {
        for good in ["a", "9lives", "sim.span.engine_pop.self_share", "a-b_c.d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_a", ".a", "-a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["s", "refs/s", "%", "1/kvt", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        }
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics defined
    /// here, with the same units and directions.
    #[test]
    fn benchmark_json_matches_this_table() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| e.req_str("name").unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.req_str("name").unwrap(), def.name);
                assert_eq!(entry.req_str("unit").unwrap(), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(entry.req_str("better").unwrap(), better, "{}", def.name);
            }
        }
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| e.req_f64("bound").unwrap())
            .collect();
        assert!(bounds.iter().all(|b| (0.0..=0.25).contains(b)));
        let setup = bounds[0];
        assert!(
            bounds.iter().all(|&b| b <= setup),
            "setup_s has the largest bound"
        );
    }
}
