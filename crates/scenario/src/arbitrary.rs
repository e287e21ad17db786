//! Generators for the property harness, deterministic from the caller's
//! RNG.
//!
//! * [`arbitrary_runnable`] draws from a narrow, cheap corner (OPT-13B on
//!   a small A40 sub-cluster, modest request counts) so end-to-end
//!   properties can actually execute every case while reusing one profile.
//! * [`arbitrary_fault_recovery`] draws a serve run whose faults all heal
//!   during the backlog drain, for the exact-recovery property.

use rand::rngs::StdRng;
use rand::Rng;

use crate::schema::{
    ArrivalsConfig, ClassConfig, ClusterConfig, DriftConfig, E2eSpec, FaultEventConfig,
    FaultKindConfig, FaultsConfig, FleetConfig, Mode, ModelSpec, PoolConfig, RateSpec,
    ReplayConfig, ReplicaConfig, Scenario, SchedulerConfig, ServeConfig, SloConfig, TenantArrivals,
    TenantConfig, TimeSpec, WorkloadConfig, CLUSTER_PRESETS, DISPATCH_POLICIES,
};

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Boundary floats: subnormals, huge magnitudes, and values with no short
/// decimal form.
fn boundary_float(rng: &mut StdRng) -> f64 {
    *pick(rng, &[5e-324, 1e308, 1.0 / 3.0, 0.1 + 0.2, 1.5, 123.456789012345e-7, 2.0_f64.powi(53)])
}

fn small_f64(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let t: f64 = rng.gen();
    lo + t * (hi - lo)
}

fn arbitrary_rate(rng: &mut StdRng) -> RateSpec {
    if rng.gen_bool(0.5) {
        RateSpec::Qps { qps: small_f64(rng, 0.1, 50.0) }
    } else {
        RateSpec::CapacityFrac { frac: small_f64(rng, 0.1, 1.0), of: "base".to_string() }
    }
}

fn arbitrary_slo(rng: &mut StdRng) -> SloConfig {
    SloConfig {
        ttft_secs: rng.gen_bool(0.3).then(|| small_f64(rng, 1.0, 60.0)),
        per_token_secs: rng.gen_bool(0.3).then(|| boundary_float(rng).abs().max(1e-6)),
        e2e_secs: rng.gen_bool(0.7).then(|| small_f64(rng, 10.0, 200.0)),
    }
}

fn arbitrary_drift(rng: &mut StdRng) -> DriftConfig {
    let window = rng.gen_range(16..512_usize);
    DriftConfig {
        window,
        min_samples: rng.gen_range(1..=window),
        check_every: rng.gen_range(1..64_usize),
        rel_threshold: small_f64(rng, 0.05, 0.5),
        consecutive: rng.gen_range(1..5_usize),
    }
}

/// A well-formed fault schedule: windows opened by a fail/slowdown are
/// either left open or closed by a matching recover, never overlapped.
fn arbitrary_faults(rng: &mut StdRng, gpus: usize) -> FaultsConfig {
    let mut events = Vec::new();
    let mut t = small_f64(rng, 0.05, 0.3);
    let n = rng.gen_range(1..4_usize);
    let mut open: Vec<usize> = Vec::new();
    for _ in 0..n {
        let gpu = rng.gen_range(0..gpus);
        if let Some(at) = open.iter().position(|g| *g == gpu) {
            open.remove(at);
            events.push(FaultEventConfig {
                at: TimeSpec::HorizonFrac(t),
                kind: FaultKindConfig::GpuRecover { gpu },
            });
        } else {
            open.push(gpu);
            let kind = if rng.gen_bool(0.5) {
                FaultKindConfig::GpuFail { gpu }
            } else {
                FaultKindConfig::GpuSlowdown { gpu, factor: small_f64(rng, 1.5, 4.0) }
            };
            events.push(FaultEventConfig { at: TimeSpec::HorizonFrac(t), kind });
        }
        t += small_f64(rng, 0.05, 0.3);
    }
    // Close every remaining window during the backlog drain, in open order.
    for gpu in open {
        events.push(FaultEventConfig {
            at: TimeSpec::HorizonFrac(t),
            kind: FaultKindConfig::GpuRecover { gpu },
        });
        t += small_f64(rng, 0.05, 0.2);
    }
    FaultsConfig {
        detection_delay_secs: rng.gen_bool(0.3).then(|| small_f64(rng, 0.0, 2.0)),
        evict_slowdown: rng.gen_bool(0.3).then(|| small_f64(rng, 1.05, 4.0)),
        max_retries: rng.gen_bool(0.3).then(|| rng.gen_range(1..8_usize)),
        backoff_base_secs: rng.gen_bool(0.3).then(|| small_f64(rng, 0.0, 1.0)),
        straggler_rel_threshold: rng.gen_bool(0.3).then(|| small_f64(rng, 1.05, 2.0)),
        straggler_consecutive: rng.gen_bool(0.3).then(|| rng.gen_range(1..6_usize)),
        events,
    }
}

fn arbitrary_serve(rng: &mut StdRng, gpus: usize) -> ServeConfig {
    let arrivals = match rng.gen_range(0..3_u32) {
        0 => ArrivalsConfig::Poisson { rate: arbitrary_rate(rng) },
        1 => ArrivalsConfig::Bursty {
            rate_burst: arbitrary_rate(rng),
            rate_lull: arbitrary_rate(rng),
            dwell_burst_secs: small_f64(rng, 5.0, 60.0),
            dwell_lull_secs: small_f64(rng, 5.0, 120.0),
        },
        _ => ArrivalsConfig::PoissonWithShift {
            rate: if rng.gen_bool(0.5) {
                RateSpec::Qps { qps: small_f64(rng, 0.1, 50.0) }
            } else {
                RateSpec::CapacityFrac {
                    frac: small_f64(rng, 0.1, 1.0),
                    of: (*pick(rng, &["base", "shifted"])).to_string(),
                }
            },
            shift_after_frac: small_f64(rng, 0.0, 1.0),
            scale_mean: small_f64(rng, 0.5, 2.0),
            scale_std: rng.gen_bool(0.3).then(|| small_f64(rng, 0.5, 2.0)),
        },
    };
    ServeConfig {
        total: rng.gen_range(1..5000_usize),
        adaptive: rng.gen_bool(0.5),
        adjust_threshold: rng.gen_bool(0.3).then(|| small_f64(rng, 0.05, 0.5)),
        arrivals,
        slo: arbitrary_slo(rng),
        drift: rng.gen_bool(0.4).then(|| arbitrary_drift(rng)),
        faults: rng.gen_bool(0.4).then(|| arbitrary_faults(rng, gpus)),
    }
}

fn arbitrary_fleet(rng: &mut StdRng) -> FleetConfig {
    let n_pools = rng.gen_range(1..3_usize);
    let pools: Vec<PoolConfig> = (0..n_pools)
        .map(|i| PoolConfig {
            name: format!("pool-{i}"),
            cluster: ClusterConfig {
                preset: pick(rng, CLUSTER_PRESETS).0.to_string(),
                gpus: Some(*pick(rng, &[2, 4_usize])),
            },
            latency_bound_secs: rng.gen_bool(0.4).then(|| small_f64(rng, 10.0, 120.0)),
        })
        .collect();
    let n_replicas = rng.gen_range(1..4_usize);
    let mut replicas: Vec<ReplicaConfig> = (0..n_replicas)
        .map(|i| ReplicaConfig {
            name: format!("r{i}"),
            pool: pools[rng.gen_range(0..pools.len())].name.clone(),
            standby: false,
        })
        .collect();
    let standby = rng.gen_bool(0.4);
    if standby {
        replicas.push(ReplicaConfig {
            name: "standby".to_string(),
            pool: pools[0].name.clone(),
            standby: true,
        });
    }
    let classes = vec![
        ClassConfig {
            name: "interactive".to_string(),
            weight: small_f64(rng, 0.5, 2.0),
            e2e: Some(if rng.gen_bool(0.5) {
                E2eSpec::PlanLatencyMidpoint
            } else {
                E2eSpec::Secs { secs: small_f64(rng, 20.0, 200.0) }
            }),
        },
        ClassConfig { name: "batch".to_string(), weight: 0.0, e2e: None },
    ];
    let tenants: Vec<TenantConfig> = (0..rng.gen_range(1..4_u32))
        .map(|i| TenantConfig {
            tenant: i,
            class: classes[rng.gen_range(0..classes.len())].name.clone(),
            arrivals: if rng.gen_bool(0.7) {
                TenantArrivals::Poisson {
                    rate: RateSpec::PoolCapacityFrac {
                        frac: small_f64(rng, 0.05, 1.0),
                        pool: (*pick(rng, &["fastest", "slowest"])).to_string(),
                    },
                }
            } else {
                TenantArrivals::Bursty {
                    rate_burst: RateSpec::Qps { qps: small_f64(rng, 0.5, 20.0) },
                    rate_lull: RateSpec::Qps { qps: small_f64(rng, 0.1, 5.0) },
                    dwell_burst_secs: small_f64(rng, 5.0, 60.0),
                    dwell_lull_secs: small_f64(rng, 10.0, 120.0),
                }
            },
        })
        .collect();
    // At most one fail/recover pair on a non-standby replica keeps the
    // generated fleets inside the fabric's supported fault envelope.
    let mut faults = Vec::new();
    let mut scale = Vec::new();
    if n_replicas > 1 && rng.gen_bool(0.4) {
        let victim = replicas[rng.gen_range(0..n_replicas)].name.clone();
        faults.push(crate::schema::FleetFaultConfig {
            at: TimeSpec::HorizonFrac(small_f64(rng, 0.3, 0.6)),
            action: "fail".to_string(),
            replica: victim,
        });
        if standby {
            scale.push(crate::schema::ScaleConfig {
                at: TimeSpec::HorizonFrac(small_f64(rng, 0.6, 0.8)),
                action: "up".to_string(),
                replica: "standby".to_string(),
            });
        }
    }
    FleetConfig {
        total: rng.gen_range(1..5000_usize),
        policy: pick(rng, DISPATCH_POLICIES).0.to_string(),
        pools,
        replicas,
        classes,
        tenants,
        faults,
        scale,
    }
}

/// Draws a scenario from the cheap runnable corner: OPT-13B on a 4-GPU A40
/// sub-cluster (one shared profile), the translation task, bounded totals.
/// Every case can execute end-to-end in test time.
pub fn arbitrary_runnable(rng: &mut StdRng) -> Scenario {
    let mode = match rng.gen_range(0..3_u32) {
        0 => {
            let mut serve = arbitrary_serve(rng, 4);
            serve.total = rng.gen_range(40..160_usize);
            // Keep offered load inside the plan so tiny runs still drain
            // fast; capacity_frac of the plan estimate is always safe.
            serve.arrivals = ArrivalsConfig::Poisson {
                rate: RateSpec::CapacityFrac {
                    frac: small_f64(rng, 0.2, 0.8),
                    of: "base".to_string(),
                },
            };
            Mode::Serve(serve)
        }
        1 => {
            let mut fleet = arbitrary_fleet(rng);
            fleet.total = rng.gen_range(100..300_usize);
            for pool in &mut fleet.pools {
                pool.cluster = ClusterConfig { preset: "a40".to_string(), gpus: Some(4) };
                pool.latency_bound_secs = None;
            }
            // Modest per-tenant load so small fleets drain quickly.
            for t in &mut fleet.tenants {
                t.arrivals = TenantArrivals::Poisson {
                    rate: RateSpec::PoolCapacityFrac {
                        frac: small_f64(rng, 0.05, 0.4),
                        pool: "slowest".to_string(),
                    },
                };
            }
            Mode::Fleet(fleet)
        }
        _ => Mode::Replay(ReplayConfig {
            num_queries: rng.gen_range(40..160_usize),
            scale_mean: rng.gen_bool(0.4).then(|| small_f64(rng, 0.8, 1.5)),
            scale_std: None,
        }),
    };
    let cluster = match mode {
        Mode::Fleet(_) => None,
        _ => Some(ClusterConfig { preset: "a40".to_string(), gpus: Some(4) }),
    };
    Scenario {
        name: format!("runnable-{}", rng.gen_range(0..1_000_000_u64)),
        seed: rng.gen_range(0..64_u64),
        model: ModelSpec { preset: "opt-13b".to_string() },
        cluster,
        workload: WorkloadConfig::Task {
            task: "translation".to_string(),
            scale_mean: None,
            scale_std: None,
        },
        scheduler: SchedulerConfig {
            latency_bound_secs: 30.0,
            eps_latency_frac: None,
            eps_throughput_frac: None,
            policies: None,
        },
        mode,
    }
}

/// A serve scenario built for the exact-recovery property: non-adaptive
/// loop, moderate load, one failure and one slowdown that both recover
/// during the backlog drain — the plan must be restored verbatim and no
/// request lost.
pub fn arbitrary_fault_recovery(rng: &mut StdRng) -> Scenario {
    let fail_gpu = rng.gen_range(1..4_usize);
    let slow_gpu = (fail_gpu + rng.gen_range(1..3_usize)) % 4;
    let events = vec![
        FaultEventConfig {
            at: TimeSpec::HorizonFrac(small_f64(rng, 0.2, 0.3)),
            kind: FaultKindConfig::GpuFail { gpu: fail_gpu },
        },
        FaultEventConfig {
            at: TimeSpec::HorizonFrac(small_f64(rng, 0.35, 0.45)),
            kind: FaultKindConfig::GpuSlowdown { gpu: slow_gpu, factor: 3.0 },
        },
        FaultEventConfig {
            at: TimeSpec::HorizonFrac(1.2),
            kind: FaultKindConfig::GpuRecover { gpu: slow_gpu },
        },
        FaultEventConfig {
            at: TimeSpec::HorizonFrac(1.4),
            kind: FaultKindConfig::GpuRecover { gpu: fail_gpu },
        },
    ];
    Scenario {
        name: format!("recovery-{}", rng.gen_range(0..1_000_000_u64)),
        seed: rng.gen_range(0..64_u64),
        model: ModelSpec { preset: "opt-13b".to_string() },
        cluster: Some(ClusterConfig { preset: "a40".to_string(), gpus: Some(4) }),
        workload: WorkloadConfig::Task {
            task: "translation".to_string(),
            scale_mean: None,
            scale_std: None,
        },
        scheduler: SchedulerConfig {
            latency_bound_secs: 30.0,
            eps_latency_frac: None,
            eps_throughput_frac: None,
            policies: None,
        },
        mode: Mode::Serve(ServeConfig {
            total: rng.gen_range(60..160_usize),
            adaptive: false,
            adjust_threshold: None,
            arrivals: ArrivalsConfig::Poisson {
                rate: RateSpec::CapacityFrac {
                    frac: small_f64(rng, 0.3, 0.6),
                    of: "base".to_string(),
                },
            },
            slo: SloConfig { ttft_secs: None, per_token_secs: None, e2e_secs: None },
            drift: None,
            faults: Some(FaultsConfig {
                detection_delay_secs: None,
                evict_slowdown: None,
                max_retries: None,
                backoff_base_secs: None,
                straggler_rel_threshold: None,
                straggler_consecutive: Some(2),
                events,
            }),
        }),
    }
}
