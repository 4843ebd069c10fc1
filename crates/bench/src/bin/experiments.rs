//! `experiments` — regenerate every table and figure of the MANA-2.0 paper.
//!
//! ```text
//! experiments fig2      # GROMACS runtime, native vs MANA, rank sweep, 2 machine profiles
//! experiments fig3      # checkpoint/restart time + image size, repeated rounds
//! experiments fig4      # VASP collectives per second per process vs ranks
//! experiments table1    # VASP robustness matrix (9 cases, C/R transparency)
//! experiments table2    # CaPOH: native vs master branch vs feature/2pc
//! experiments scale     # checkpoint-round latency, 64→4096 ranks, CoopEngine
//! experiments drain     # quiesce head-to-head, alltoall vs toposort,
//!                       # 64→4096 ranks, BENCH_drain_quiesce.json
//! experiments all       # everything except `scale` (minutes at 4096 ranks)
//! ```
//!
//! Flags, after the experiment ([`Knobs`]): `--ranks 2,4,8,16` overrides
//! the figure sweeps, `--scale-ranks 64,256` and `--drain-inflight 4,64`
//! the `scale` / `drain` sweeps, `--scale 0.5` scales workload sizes, and
//! `--json-dir DIR` says where the JSON artifacts go (default
//! `<temp>/mana2_experiments`). Engine, drain, store layout, trace
//! directory and live metrics export come from `mana_core::from_env`
//! wherever an experiment does not pin its own. Both are read once in
//! `main`: an unknown flag or a value that does not parse exits 2 before
//! any rank starts.

use mana_bench::*;
use mana_core::{obs, DrainMode, EnvConfig, ManaConfig};
use mpisim::{CoopCfg, EngineKind, MachineProfile, Named, WorldCfg};
use std::time::Instant;
use workloads::{gromacs, under_mana, vasp, Launch};

/// Table II's rank count (the paper's is 128).
const T2_RANKS: usize = 8;

fn md_config(scale: f64) -> gromacs::GromacsConfig {
    gromacs::GromacsConfig {
        atoms_per_rank: ((1024.0 * scale) as usize).max(64),
        steps: ((20.0 * scale) as u64).max(5),
        compute_per_step: (8_000.0 * scale) as u64,
        energy_interval: 5,
        halo: 32,
        ckpt_at_step: None,
        ckpt_round: 0,
    }
}

fn capoh_config(steps: u64, scale: f64) -> vasp::VaspConfig {
    let capoh = vasp::table1_cases()
        .into_iter()
        .find(|c| c.name == "CaPOH")
        .unwrap();
    vasp::VaspConfig {
        case: capoh,
        scf_steps: steps,
        state_scale: 0.2 * scale,
        compute_per_sweep: (2_000.0 * scale) as u64,
        ckpt_at_step: None,
        ckpt_round: 0,
    }
}

// -------------------------------------------------------------------------

fn fig2(env: &EnvConfig, k: &Knobs) {
    println!("== Fig. 2: GROMACS run time, native vs MANA (hybrid 2PC) ==");
    println!("(paper: 32..2048 ranks on Cori; here: scaled sweep, same shape)");
    let md = md_config(k.scale);
    let mut panels = Vec::new();
    for profile in [MachineProfile::haswell(), MachineProfile::knl()] {
        println!("\n-- {} panel --", profile.name);
        println!(
            "{:>6} {:>12} {:>12} {:>7}",
            "ranks", "native", "mana", "ratio"
        );
        let mut rows = Vec::new();
        let mut last_stats = None;
        for &ranks in &k.ranks {
            let nat = timed_native(env, ranks, &md, profile.clone());
            let mcfg = ManaConfig {
                ckpt_dir: scratch_dir("fig2"),
                ..env.mana.clone()
            };
            let man = timed_mana(env, ranks, &md, profile.clone(), mcfg);
            assert_eq!(
                nat.result, man.result,
                "transparency violated at {ranks} ranks"
            );
            println!(
                "{:>6} {:>12.2?} {:>12.2?} {:>6.2}x",
                ranks,
                nat.wall,
                man.wall,
                man.wall.as_secs_f64() / nat.wall.as_secs_f64()
            );
            rows.push(format!(
                "{{\"ranks\":{ranks},\"native_s\":{:.6},\"mana_s\":{:.6}}}",
                nat.wall.as_secs_f64(),
                man.wall.as_secs_f64()
            ));
            last_stats = Some(man.stats);
        }
        panels.push(format!(
            "{{\"profile\":\"{}\",\"rows\":[{}],\"world_stats\":{}}}",
            profile.name,
            rows.join(","),
            last_stats
                .map(|s| s.to_json())
                .unwrap_or_else(|| "null".into())
        ));
    }
    write_json_artifact(
        &k.json_dir,
        "fig2",
        &format!(
            "{{\"experiment\":\"fig2\",\"panels\":[{}]}}\n",
            panels.join(",")
        ),
    );
}

fn fig3(env: &EnvConfig, k: &Knobs) {
    println!("== Fig. 3: checkpoint/restart overhead and image size ==");
    println!("(paper: GROMACS at 2048 ranks, 10 C/R rounds on the burst buffer)");
    let rounds = 10u64;
    let ranks = *k.ranks.last().unwrap();
    let mut md = md_config(k.scale);
    md.compute_per_step = 0;
    md.steps = rounds * 3 + 2;

    // Resume-mode: measure per-round checkpoint times over `rounds` rounds.
    let dir = scratch_dir("fig3");
    let mcfg = ManaConfig {
        ckpt_dir: dir.clone(),
        ..env.mana.clone()
    };
    let rt = runtime(env, ranks, mcfg, MachineProfile::zero());
    // Rank 0 requests one checkpoint every 3 steps.
    let periodic = gromacs::Periodic {
        md: md.clone(),
        rounds,
        stride: 3,
    };
    let report = under_mana(&rt, Launch::Fresh, &periodic).expect("fig3 run");
    println!("\n{ranks} ranks, {rounds} checkpoint rounds (resume mode):");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>14}",
        "round", "quiesce", "write", "flush", "image bytes"
    );
    for r in &report.coord.rounds {
        println!(
            "{:>6} {:>12.2?} {:>12.2?} {:>12.2?} {:>14}",
            r.round, r.quiesce, r.write, r.flush, r.total_image_bytes
        );
    }
    let round_rows: Vec<String> = report
        .coord
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"round\":{},\"quiesce_us\":{},\"write_us\":{},\"flush_us\":{},\"image_bytes\":{}}}",
                r.round,
                r.quiesce.as_micros(),
                r.write.as_micros(),
                r.flush.as_micros(),
                r.total_image_bytes
            )
        })
        .collect();
    write_json_artifact(
        &k.json_dir,
        "fig3",
        &format!(
            "{{\"experiment\":\"fig3\",\"ranks\":{ranks},\"rounds\":[{}],\"rank0_stats\":{},\"world_stats\":{}}}\n",
            round_rows.join(","),
            report.rank_stats[0].to_json(),
            report.world_stats.to_json()
        ),
    );

    // Restart time: checkpoint-and-kill then measure the restart run.
    let dir2 = scratch_dir("fig3_restart");
    let mcfg2 = ManaConfig {
        ckpt_dir: dir2.clone(),
        exit_after_ckpt: true,
        ..env.mana.clone()
    };
    let mut md2 = md.clone();
    md2.steps = 4;
    md2.ckpt_at_step = Some(2);
    let rt = runtime(env, ranks, mcfg2, MachineProfile::zero());
    under_mana(&rt, Launch::Fresh, &md2).expect("fig3 ckpt pass");
    let t = Instant::now();
    under_mana(&rt, Launch::Restart, &md2).expect("fig3 restart pass");
    println!(
        "\nrestart (read images + rebuild lower half + rebind + finish run): {:.2?}",
        t.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

fn fig4(env: &EnvConfig, k: &Knobs) {
    println!("== Fig. 4: VASP collective calls per second per process ==");
    println!("(paper: roughly logarithmic growth with node count)");
    println!(
        "{:>6} {:>14} {:>18} {:>10} {:>16}",
        "ranks", "collectives", "colls/proc/step", "wall", "colls/s/proc"
    );
    println!("(colls/proc/step is the scale-shape metric; the wall-clock rate is");
    println!(" serialized by the 1-core host and underestimates large rank counts)");
    let steps = 4u64;
    let mut rows = Vec::new();
    for &ranks in &k.ranks {
        let cfg = capoh_config(steps, k.scale);
        let t = timed_native(env, ranks, &cfg, MachineProfile::haswell());
        let colls = t.stats.total_collectives();
        let per_step = colls as f64 / ranks as f64 / steps as f64;
        let rate = colls as f64 / t.wall.as_secs_f64() / ranks as f64;
        println!(
            "{:>6} {:>14} {:>18.1} {:>10.2?} {:>16.1}",
            ranks, colls, per_step, t.wall, rate
        );
        rows.push(format!(
            "{{\"ranks\":{ranks},\"collectives\":{colls},\"per_proc_per_step\":{per_step:.3}}}"
        ));
    }
    write_json_artifact(
        &k.json_dir,
        "fig4",
        &format!(
            "{{\"experiment\":\"fig4\",\"rows\":[{}]}}\n",
            rows.join(",")
        ),
    );
}

fn table1(env: &EnvConfig, k: &Knobs) {
    println!("== Table I: VASP robustness matrix (C/R transparency) ==");
    println!(
        "{:<12} {:>9} {:>6} {:>10} {:>8} {:>12} {:>6}",
        "case", "electrons", "ions", "functional", "algo", "colls/rank", "C/R"
    );
    let ranks = 4;
    let mut rows = Vec::new();
    for case in vasp::table1_cases() {
        let name = case.name;
        let functional = format!("{:?}", case.functional);
        let algo = format!("{:?}", case.algo);
        let (electrons, ions) = (case.electrons, case.ions);
        let mut vcfg = vasp::VaspConfig::small(case);
        vcfg.scf_steps = 3;
        vcfg.compute_per_sweep = 0;

        let native = timed_native(env, ranks, &vcfg, MachineProfile::zero());

        let dir = scratch_dir(&format!("t1_{name}"));
        let mcfg = ManaConfig {
            ckpt_dir: dir.clone(),
            exit_after_ckpt: true,
            ..env.mana.clone()
        };
        let mut vc1 = vcfg.clone();
        vc1.ckpt_at_step = Some(1);
        let rt = runtime(env, ranks, mcfg, MachineProfile::zero());
        let pass1 = under_mana(&rt, Launch::Fresh, &vc1).expect("table1 pass1");
        let pass2 = under_mana(&rt, Launch::Restart, &vcfg).expect("table1 pass2");
        let restored = pass2.values();
        let ok = pass1.all_checkpointed() && restored[0].energy == native.result.energy;
        println!(
            "{:<12} {:>9} {:>6} {:>10} {:>8} {:>12} {:>6}",
            name,
            electrons,
            ions,
            functional,
            algo,
            restored[0].collective_calls,
            if ok { "PASS" } else { "FAIL" }
        );
        rows.push(format!(
            "{{\"case\":\"{name}\",\"collective_calls\":{},\"cr_pass\":{ok}}}",
            restored[0].collective_calls
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    write_json_artifact(
        &k.json_dir,
        "table1",
        &format!(
            "{{\"experiment\":\"table1\",\"rows\":[{}]}}\n",
            rows.join(",")
        ),
    );
}

fn table2(env: &EnvConfig, k: &Knobs) {
    println!("== Table II: CaPOH runtime, native vs MANA branches ==");
    println!("(paper, 128 ranks: Haswell 25s/41s/35s; KNL 69s/137s/101s)");
    let ranks = T2_RANKS;
    let cfg = capoh_config(6, k.scale);
    println!(
        "\n{:<9} {:>12} {:>16} {:>20} {:>10} {:>10}",
        "profile", "native", "master(orig 2pc)", "feature/2pc(hybrid)", "ovh-master", "ovh-2pc"
    );
    let mut rows = Vec::new();
    for profile in [MachineProfile::haswell(), MachineProfile::knl()] {
        let nat = timed_native(env, ranks, &cfg, profile.clone());
        let master = timed_mana(
            env,
            ranks,
            &cfg,
            profile.clone(),
            ManaConfig {
                ckpt_dir: scratch_dir("t2m"),
                store: env.mana.store.clone(),
                ..ManaConfig::master_branch()
            },
        );
        let feat = timed_mana(
            env,
            ranks,
            &cfg,
            profile.clone(),
            ManaConfig {
                ckpt_dir: scratch_dir("t2f"),
                drain: env.mana.drain,
                store: env.mana.store.clone(),
                ..ManaConfig::feature_2pc_branch()
            },
        );
        assert_eq!(nat.result.energy, master.result.energy);
        assert_eq!(nat.result.energy, feat.result.energy);
        println!(
            "{:<9} {:>12.2?} {:>16.2?} {:>20.2?} {:>9.0}% {:>9.0}%",
            profile.name,
            nat.wall,
            master.wall,
            feat.wall,
            overhead_pct(nat.wall, master.wall),
            overhead_pct(nat.wall, feat.wall)
        );
        rows.push(format!(
            "{{\"profile\":\"{}\",\"native_s\":{:.6},\"master_s\":{:.6},\"feature_2pc_s\":{:.6}}}",
            profile.name,
            nat.wall.as_secs_f64(),
            master.wall.as_secs_f64(),
            feat.wall.as_secs_f64()
        ));
    }
    println!("\nexpected shape: master ≥ feature/2pc ≥ native; overheads drop with hybrid 2PC");
    write_json_artifact(
        &k.json_dir,
        "table2",
        &format!(
            "{{\"experiment\":\"table2\",\"ranks\":{ranks},\"rows\":[{}]}}\n",
            rows.join(",")
        ),
    );
}

/// `experiments trace`: run GROMACS through two checkpoint rounds with the
/// flight recorder armed and print the analyzer's per-phase wall-time
/// tables, measured from real spans (not the coordinator's two coarse
/// timers). Also dumps the JSONL + Chrome trace for `mana2-trace` /
/// `chrome://tracing`.
fn trace(env: &EnvConfig, k: &Knobs) {
    println!("== Checkpoint-window trace: GROMACS, 2 rounds, real spans ==");
    let ranks = 4;
    let rounds = 2u64;
    let sink = obs::TraceSink::wall(ranks, 8192);
    let dir = scratch_dir("trace");
    let mcfg = ManaConfig {
        ckpt_dir: dir.clone(),
        trace: Some(sink.clone()),
        ..env.mana.clone()
    };
    let mut md = md_config(k.scale);
    md.compute_per_step = 0;
    md.steps = rounds * 3 + 2;
    let config = mcfg.record(&env.world.engine);
    let rt = runtime(env, ranks, mcfg, MachineProfile::zero());
    let periodic = gromacs::Periodic {
        md,
        rounds,
        stride: 3,
    };
    under_mana(&rt, Launch::Fresh, &periodic).expect("trace run");
    let _ = std::fs::remove_dir_all(&dir);

    let label = obs::unique_label("experiments_trace");
    let meta = obs::DumpMeta::of(&sink, &label, None, &config);
    println!("\n{}", obs::analyze::render_summary(&meta, &sink.merged()));
    match obs::flight_record(&sink, &env.outputs.trace_dir, &meta, None) {
        Ok(d) => println!(
            "dumped {} events: {}\n              {}",
            d.events,
            d.jsonl.display(),
            d.chrome.display()
        ),
        Err(e) => eprintln!("trace dump failed: {e}"),
    }
}

fn scale_exp(env: &EnvConfig, k: &Knobs) {
    println!("== Scale: checkpoint-round latency vs rank count (CoopEngine) ==");
    println!("(rank counts past the thread-per-rank ceiling; --scale-ranks ... overrides)");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "ranks", "ckpt leg", "quiesce", "write", "restart leg", "image MB"
    );
    let md = gromacs::GromacsConfig {
        atoms_per_rank: 32,
        steps: 4,
        compute_per_step: 0,
        energy_interval: 2,
        halo: 8,
        ckpt_at_step: Some(2),
        ckpt_round: 0,
    };
    let mut rows = Vec::new();
    for &ranks in &k.scale_ranks {
        let mcfg = ManaConfig {
            // Coordinator drain is O(n) in coordination traffic; the
            // Alltoall counts matrix is O(n²) and the wrong tool here.
            drain: DrainMode::Coordinator,
            exit_after_ckpt: true,
            ckpt_dir: scratch_dir("scale"),
            ..env.mana.clone()
        };
        let dir = mcfg.ckpt_dir.clone();
        let wc = WorldCfg {
            engine: EngineKind::Coop(CoopCfg {
                workers: 0, // auto: one per available core
                sched_seed: 0x5CA1_E000,
            }),
            ..world_cfg(env, MachineProfile::zero())
        };
        let rt = runtime(env, ranks, mcfg, MachineProfile::zero()).with_world_cfg(wc);
        let t = Instant::now();
        let pass1 = under_mana(&rt, Launch::Fresh, &md).expect("scale checkpoint leg");
        let ckpt_wall = t.elapsed();
        assert!(
            pass1.all_checkpointed(),
            "all ranks must checkpoint-and-exit at {ranks} ranks"
        );
        let round = pass1
            .coord
            .rounds
            .first()
            .cloned()
            .expect("one committed round");

        let t = Instant::now();
        let pass2 = under_mana(&rt, Launch::Restart, &md).expect("scale restart leg");
        let restart_wall = t.elapsed();
        assert!(
            pass2.all_finished(),
            "restart leg must run to completion at {ranks} ranks"
        );
        let _ = std::fs::remove_dir_all(&dir);

        println!(
            "{:>6} {:>12.2?} {:>12.2?} {:>12.2?} {:>12.2?} {:>10.2}",
            ranks,
            ckpt_wall,
            round.quiesce,
            round.write,
            restart_wall,
            round.total_image_bytes as f64 / (1024.0 * 1024.0)
        );
        rows.push(format!(
            "{{\"ranks\":{ranks},\"ckpt_leg_s\":{:.6},\"quiesce_s\":{:.6},\"write_s\":{:.6},\"restart_leg_s\":{:.6},\"image_bytes\":{}}}",
            ckpt_wall.as_secs_f64(),
            round.quiesce.as_secs_f64(),
            round.write.as_secs_f64(),
            restart_wall.as_secs_f64(),
            round.total_image_bytes
        ));
    }
    write_json_artifact(
        &k.json_dir,
        "scale",
        &format!(
            "{{\"experiment\":\"scale\",\"engine\":\"coop\",\"rows\":[{}]}}\n",
            rows.join(",")
        ),
    );
}

/// Head-to-head drain-protocol sweep: the identical checkpoint round
/// quiesced by `DrainMode::Alltoall` vs `DrainMode::TopoSort` at each
/// rank count, at low and high
/// in-flight message counts. Each rank fires a burst of eager sends at
/// its right neighbor and only posts the receives *after* the checkpoint
/// window, so the drain must capture exactly `ranks × burst` unexpected
/// messages — the in-flight axis is under direct control. The alltoall's
/// count exchange is a real fabric collective (rows gathered at local
/// rank 0, columns scattered back: 2(n − 1) messages); the topo-sort
/// protocol replaces it with two coordinator messages per rank. Both run
/// after `Go`, so the count exchange shows in the `drain+freeze` column
/// (`CkptRoundStats::write`: `Go` to the last image frozen), not in
/// `quiesce` (intent to every rank parked). Emits
/// `BENCH_drain_quiesce.json`.
fn drain_exp(env: &EnvConfig, k: &Knobs) {
    use mpisim::{SrcSel, TagSel};
    println!("== Drain: quiesce time, alltoall vs toposort (CoopEngine) ==");
    println!("(same workload per cell; --scale-ranks / --drain-inflight override)");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>12} {:>14} {:>14} {:>11}",
        "ranks",
        "burst",
        "strategy",
        "quiesce",
        "drain+freeze",
        "in-flight msgs",
        "in-flight MB",
        "coord msgs"
    );
    let mut rows = Vec::new();
    for &ranks in &k.scale_ranks {
        for &burst in &k.drain_inflight {
            for drain in [DrainMode::Alltoall, DrainMode::TopoSort] {
                let mcfg = ManaConfig {
                    drain,
                    ckpt_dir: scratch_dir("drain"),
                    ..env.mana.clone()
                };
                let dir = mcfg.ckpt_dir.clone();
                let wc = WorldCfg {
                    engine: EngineKind::Coop(CoopCfg {
                        workers: 0, // auto: one per available core
                        sched_seed: 0xD4A1_0000,
                    }),
                    ..world_cfg(env, MachineProfile::zero())
                };
                let work = move |m: &mut mana_core::Mana<'_>| {
                    let world = m.comm_world();
                    let (me, n) = (m.rank(), m.world_size());
                    let payload = vec![0u8; 256];
                    for k in 0..burst {
                        m.send(world, (me + 1) % n, k as i32, &payload)?;
                    }
                    if me == 0 {
                        m.request_checkpoint()?;
                    }
                    // Every rank parks here with its whole burst still
                    // unreceived: the quiesce must find and capture it.
                    m.barrier(world)?;
                    let left = (me + n - 1) % n;
                    for k in 0..burst {
                        m.recv(world, SrcSel::Rank(left), TagSel::Tag(k as i32))?;
                    }
                    Ok(me as u64)
                };
                let rt = runtime(env, ranks, mcfg, MachineProfile::zero()).with_world_cfg(wc);
                let pass = rt.run_fresh(work).expect("drain round");
                assert!(
                    pass.all_finished(),
                    "all ranks must finish at {ranks} ranks ({} drain)",
                    drain.name()
                );
                let round = pass
                    .coord
                    .rounds
                    .first()
                    .cloned()
                    .expect("one committed round");
                let _ = std::fs::remove_dir_all(&dir);
                let drained_msgs: u64 = pass.rank_stats.iter().map(|s| s.drained_msgs).sum();
                let drained_bytes: u64 = pass.rank_stats.iter().map(|s| s.drained_bytes).sum();
                // The bulk of the burst: ranks that clear the barrier
                // before the intent reaches them receive a slice of their
                // burst normally, so the captured count is a little under
                // ranks × burst (and the in-window barrier's emulation
                // traffic can add a few). Zero would mean the window
                // never saw the in-flight population at all.
                assert!(
                    drained_msgs > 0,
                    "quiesce captured nothing at {ranks} ranks ({} drain)",
                    drain.name()
                );
                println!(
                    "{:>6} {:>6} {:>12} {:>12.2?} {:>12.2?} {:>14} {:>14.3} {:>11}",
                    ranks,
                    burst,
                    drain.name(),
                    round.quiesce,
                    round.write,
                    drained_msgs,
                    drained_bytes as f64 / (1024.0 * 1024.0),
                    round.coord_msgs
                );
                rows.push(format!(
                    "{{\"ranks\":{ranks},\"burst\":{burst},\"strategy\":\"{}\",\"quiesce_s\":{:.6},\"write_s\":{:.6},\"drained_msgs\":{drained_msgs},\"drained_bytes\":{drained_bytes},\"coord_msgs\":{}}}",
                    drain.name(),
                    round.quiesce.as_secs_f64(),
                    round.write.as_secs_f64(),
                    round.coord_msgs
                ));
            }
        }
    }
    write_json_artifact(
        &k.json_dir,
        "BENCH_drain_quiesce",
        &format!(
            "{{\"experiment\":\"drain\",\"engine\":\"coop\",\"rows\":[{}]}}\n",
            rows.join(",")
        ),
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let what = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => "all".into(),
    };
    let (env, k) = (env_or_exit(), knobs_or_exit(&args));
    let t = Instant::now();
    match what.as_str() {
        "fig2" => fig2(&env, &k),
        "fig3" => fig3(&env, &k),
        "fig4" => fig4(&env, &k),
        "table1" => table1(&env, &k),
        "table2" => table2(&env, &k),
        "trace" | "--trace" => trace(&env, &k),
        "scale" => scale_exp(&env, &k),
        "drain" => drain_exp(&env, &k),
        "all" => {
            fig2(&env, &k);
            println!();
            fig3(&env, &k);
            println!();
            fig4(&env, &k);
            println!();
            table1(&env, &k);
            println!();
            table2(&env, &k);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use fig2|fig3|fig4|table1|table2|trace|scale|drain|all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("\n[experiments completed in {:.1?}]", t.elapsed());
}
