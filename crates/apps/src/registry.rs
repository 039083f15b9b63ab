//! The analyzer-facing app registry: every built-in application paired
//! with the [`AppManifest`] it declares to `edp-analyze`.
//!
//! Each entry constructs a throwaway instance at representative
//! parameters (the analyzer's probe pass mutates it) and declares the
//! handler set, armed timers, understood control-plane opcodes, merge
//! ops, table snapshots, and — where a hazard is the documented design —
//! per-diagnostic `allow`s with the reason on record.

use crate::{
    cms_reset, fred, frr, hula, int_reduce, liveness, microburst, migrate, ndp, netcache, policer,
    rate_monitor, scheduler,
};
use edp_core::aggreg::MERGE_ADD;
use edp_core::{AppManifest, BaselineAdapter, EmitFootprint, EventKind, EventProgram};
use edp_evsim::SimTime;
use edp_pisa::{PisaProgram, TableRouter};
use std::net::Ipv4Addr;

/// One registered application: an analyzable instance plus its manifest.
pub struct RegisteredApp {
    /// What the app declares to the analyzer.
    pub manifest: AppManifest,
    /// A throwaway instance for the probe pass to exercise.
    pub program: Box<dyn EventProgram>,
}

/// Why the three intentionally multiported registers are allowed: the
/// paper's §2 apps were written against `shared_register` semantics, and
/// each registers [`MERGE_ADD`] so the analyzer proves an
/// aggregation-register realization (§4, Figure 3) of the same state is
/// legal.
const MULTIPORT_REASON: &str =
    "intentional multiported shared_register (§2); MERGE_ADD is registered and proven \
     reorder-tolerant, so the §4 aggregation-register realization is legal";

/// Builds every built-in app with its manifest — the set `edp_lint`
/// analyzes and CI gates on.
pub fn builtin_apps() -> Vec<RegisteredApp> {
    use EventKind::*;

    // The baseline router exercises table introspection: routes are
    // installed through the management channel exactly as a deployment
    // would, then snapshotted into the manifest for rule analysis.
    let mut router = TableRouter::new();
    for (ip, plen, port) in [
        (Ipv4Addr::new(10, 0, 0, 0), 24u64, 1u64),
        (Ipv4Addr::new(10, 0, 1, 0), 24, 2),
        (Ipv4Addr::new(10, 0, 0, 0), 8, 3),
        (Ipv4Addr::new(0, 0, 0, 0), 0, 0),
    ] {
        router.control_update(
            TableRouter::OP_INSERT_ROUTE,
            [u32::from(ip) as u64, plen, port, 0],
            SimTime::ZERO,
        );
    }

    vec![
        RegisteredApp {
            manifest: AppManifest::new("microburst")
                .handles([IngressPacket, BufferEnqueue, BufferDequeue])
                .merge_op(MERGE_ADD)
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!())
                .allow("EDP-W001", "flowBufSize_reg", MULTIPORT_REASON)
                .allow("EDP-W002", "flowBufSize_reg", MULTIPORT_REASON),
            program: Box::new(microburst::MicroburstEvent::new(64, 8_000, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("hula-leaf")
                .handles([IngressPacket, GeneratedPacket, TimerExpiration])
                .timers([hula::TIMER_PROBE])
                .generates()
                .emits(IngressPacket, EmitFootprint::Any)
                .emits(GeneratedPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(hula::HulaLeaf::new(
                0,
                Ipv4Addr::new(10, 0, 0, 1),
                0,
                vec![1, 2],
                4,
            )),
        },
        RegisteredApp {
            manifest: AppManifest::new("hula-spine")
                .handles([IngressPacket, PacketTransmitted, TimerExpiration])
                .timers([hula::TIMER_PROBE])
                // Probe decay and tx-rate accounting only: the timer and
                // transmit handlers touch no wire, so the closed world
                // certifies spine timer cranks as shard-local.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(hula::HulaSpine::new(
                vec![0, 1],
                vec![40_000_000_000; 2],
                (8, 1_000_000),
            )),
        },
        RegisteredApp {
            manifest: AppManifest::new("ndp-trim")
                .handles([IngressPacket, BufferOverflow])
                // The overflow trim re-offers the victim header to the
                // queue that overflowed — a real emission decided by the
                // overflow handler, so it carries its own footprint.
                .emits(IngressPacket, EmitFootprint::Any)
                .emits(BufferOverflow, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(ndp::NdpTrim::new(1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("timer-policer")
                .handles([IngressPacket, TimerExpiration])
                .timers([policer::TIMER_REFILL])
                // Refill mutates bucket state only — the canonical
                // certified-local timer of the effects analysis.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(policer::TimerPolicer::new(1_000_000, 1_000_000, 3_000, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("state-migrate")
                .handles([IngressPacket, GeneratedPacket, LinkStatusChange])
                .generates()
                .emits(IngressPacket, EmitFootprint::Any)
                .emits(GeneratedPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(migrate::StatefulCounter::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                0,
                1,
                64,
            )),
        },
        RegisteredApp {
            manifest: AppManifest::new("telemetry-marker")
                .handles([IngressPacket, BufferDequeue, EgressPacket])
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(crate::ecn::TelemetryMarker::new(4, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("rate-monitor")
                .handles([IngressPacket, TimerExpiration])
                .timers([rate_monitor::TIMER_SHIFT, rate_monitor::TIMER_SAMPLE])
                // Both timers shift/sample local estimators — certified.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(rate_monitor::RateMonitor::new(64, 8, 1_000_000, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("liveness-monitor")
                .handles([IngressPacket, GeneratedPacket, TimerExpiration])
                .timers([liveness::TIMER_PROBE, liveness::TIMER_CHECK])
                .generates()
                .emits(IngressPacket, EmitFootprint::Any)
                .emits(GeneratedPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(liveness::LivenessMonitor::new(
                Ipv4Addr::new(10, 0, 0, 1),
                vec![
                    liveness::Neighbor {
                        port: 1,
                        addr: Ipv4Addr::new(10, 0, 0, 2),
                    },
                    liveness::Neighbor {
                        port: 2,
                        addr: Ipv4Addr::new(10, 0, 0, 3),
                    },
                ],
                5_000_000,
            )),
        },
        RegisteredApp {
            manifest: AppManifest::new("frr")
                .handles([IngressPacket, LinkStatusChange])
                // Failover flips the active port; only packets emit.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(frr::FrrEvent::new(1, 2)),
        },
        RegisteredApp {
            manifest: AppManifest::new("fred-aqm")
                .handles([IngressPacket, BufferEnqueue, BufferDequeue, TimerExpiration])
                .timers([fred::TIMER_REPORT])
                .merge_op(MERGE_ADD)
                // The report timer notifies the control plane — an async
                // channel that never crosses the wire — so it certifies.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!())
                .allow("EDP-W001", "flow_occ", MULTIPORT_REASON)
                .allow("EDP-W002", "flow_occ", MULTIPORT_REASON),
            program: Box::new(fred::FredAqm::new(64, 60_000, 1_500, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("netcache")
                .handles([IngressPacket, GeneratedPacket, TimerExpiration])
                .timers([netcache::TIMER_STATS])
                .generates()
                // The stats timer itself is silent, but `generates()` is
                // app-global: cache-hit replies keep the timer closure
                // open, so netcache timers stay uncertified. Honest.
                .emits(IngressPacket, EmitFootprint::Any)
                .emits(GeneratedPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(netcache::NetCacheSwitch::new(0, 1, 64, 3, true)),
        },
        RegisteredApp {
            manifest: AppManifest::new("cms-monitor")
                .handles([IngressPacket, TimerExpiration, ControlPlaneTriggered])
                .timers([0])
                .cp_ops([cms_reset::CP_OP_RESET])
                // Sketch reset (timer or controller-triggered) is pure
                // state mutation — both control kinds certify local.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(cms_reset::CmsMonitor::new(64, 4, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("stfq-scheduler")
                .handles([IngressPacket, BufferDequeue])
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(scheduler::StfqScheduler::new(64, 1)),
        },
        RegisteredApp {
            manifest: AppManifest::new("int-reduce")
                .handles([
                    IngressPacket,
                    BufferEnqueue,
                    BufferDequeue,
                    BufferOverflow,
                    TimerExpiration,
                ])
                .timers([int_reduce::TIMER_WINDOW])
                .merge_op(MERGE_ADD)
                // The window timer folds summaries and notifies the
                // control plane; no frame leaves — certified local.
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!())
                .allow("EDP-W001", "int_flow_occ", MULTIPORT_REASON)
                .allow("EDP-W002", "int_flow_occ", MULTIPORT_REASON),
            program: Box::new(int_reduce::IntReduced::new(1, 4, 64, 1_000_000)),
        },
        RegisteredApp {
            manifest: AppManifest::new("baseline-router")
                .handles([IngressPacket, EgressPacket, ControlPlaneTriggered])
                .cp_ops([TableRouter::OP_INSERT_ROUTE, TableRouter::OP_CLEAR_ROUTES])
                .table(router.routes().shape())
                .emits(IngressPacket, EmitFootprint::Any)
                .source(file!()),
            program: Box::new(BaselineAdapter(router)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_builtin_apps() {
        let apps = builtin_apps();
        assert_eq!(apps.len(), 16);
        let mut names: Vec<&str> = apps.iter().map(|a| a.manifest.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "app names must be unique");
    }

    #[test]
    fn every_app_declares_a_closed_emission_world() {
        for app in builtin_apps() {
            let s = edp_core::EffectSummary::from_manifest(&app.manifest);
            assert!(
                s.closed_world,
                "{} left its emission world open — declare emits()/no_emissions()",
                app.manifest.name
            );
            assert!(
                app.manifest.source.is_some(),
                "{} declares no source file for SARIF locations",
                app.manifest.name
            );
        }
    }

    /// Pins which timers the effects analysis certifies as shard-local.
    /// Adding an emission path to a certified app's timer cascade must
    /// consciously move it to the uncertified list, not silently lose
    /// (or worse, silently keep) the certificate.
    #[test]
    fn timer_certificates_match_the_documented_set() {
        let certified = [
            "hula-spine",
            "timer-policer",
            "rate-monitor",
            "fred-aqm",
            "cms-monitor",
            "int-reduce",
        ];
        for app in builtin_apps() {
            let m = &app.manifest;
            if !m.implements(EventKind::TimerExpiration) {
                continue;
            }
            let s = edp_core::EffectSummary::from_manifest(m);
            assert_eq!(
                s.timer_local(),
                certified.contains(&m.name),
                "{}: timer certificate drifted from the documented set",
                m.name
            );
        }
    }

    #[test]
    fn every_app_declares_ingress() {
        for app in builtin_apps() {
            assert!(
                app.manifest.implements(EventKind::IngressPacket),
                "{} declares no ingress handler",
                app.manifest.name
            );
        }
    }
}
