//! The per-layer suite of a traced run.
//!
//! Every traced run measures every layer, so every workload prints the same
//! per-layer metrics. The trainer layers are taken from the workload's own
//! trainer (`sched_replay`, which has none, uses a `train_vn16` job built
//! from the same seed); the scheduler and obs layers from one replay pass
//! of the workload's trace set (built from the seed on the training
//! workloads). See the README for which end-to-end metric each one moves.

use crate::kernels::{self, Kind};
use crate::measure::{median, metric, time_ms, Metric, Outcome};
use crate::sched::SchedLayers;
use crate::spans::Tracer;
use crate::train::{bit_equal, devices, new_store, Job, BATCH, DIMS};
use vf_data::batching::{shard_indices, BatchPlan};
use vf_device::DeviceId;
use vf_models::Architecture;
use vf_tensor::reduce::{self, ReductionOrder};
use vf_tensor::{pool, Tensor};

/// Steps replayed layer by layer.
const REPLAY_STEPS: usize = 3;
/// Checkpoint cycles measured.
const CKPT_CYCLES: usize = 2;

/// Per-step layer times of one traced step and its serial replay.
#[derive(Default)]
struct StepLayers {
    step_ms: f64,
    gather_ms: f64,
    grad_ms: f64,
    reduce_ms: f64,
    optim_ms: f64,
    pool_jobs: f64,
    pool_serial: f64,
}

/// Runs one traced `Trainer::step`, then replays gather, grad, reduce and
/// optimizer serially on that step's own inputs, and checks the replay
/// reaches the trainer's parameters bit for bit.
fn replay_step(job: &mut Job, tr: &mut Tracer, out: &mut Outcome) -> StepLayers {
    let before = job.trainer.to_checkpoint();
    let step = job.trainer.steps_done();
    let vns = job.vns() as usize;
    let pool0 = pool::stats();
    let (_, step_ms) = job.step(tr);
    let pool1 = pool::stats();
    let mut l = StepLayers {
        step_ms,
        pool_jobs: (pool1.jobs_submitted - pool0.jobs_submitted) as f64,
        pool_serial: (pool1.serial_fallbacks - pool0.serial_fallbacks) as f64,
        ..StepLayers::default()
    };

    let replay = tr.begin("replay");
    let config = job.trainer.config().clone();
    let plan =
        BatchPlan::new(job.dataset.len(), BATCH, config.seed).expect("the batch fits the dataset");
    let shards = shard_indices(&plan.batch_at(step as usize).indices, vns)
        .expect("the batch splits across VNs");
    let mut per_param: Vec<Vec<Tensor>> = vec![Vec::with_capacity(vns); before.params.len()];
    let mut stateful = job.arch.init_stateful();
    for shard in &shards {
        let (batch, ms) = time_ms(|| tr.span("data.gather", || job.dataset.gather(shard)));
        let (x, y) = batch.expect("gathering a shard succeeds");
        l.gather_ms += ms;
        let (report, ms) = time_ms(|| {
            tr.span("models.grad", || {
                job.arch.grad(&before.params, &mut stateful, &x, &y)
            })
        });
        l.grad_ms += ms;
        for (p, g) in report
            .expect("the MLP gradient succeeds")
            .grads
            .into_iter()
            .enumerate()
        {
            per_param[p].push(g);
        }
    }
    let (reduced, ms) = time_ms(|| {
        tr.span("tensor.reduce", || {
            per_param
                .iter()
                .map(|parts| {
                    reduce::reduce_mean(parts, ReductionOrder::Tree, None)
                        .expect("VN gradients agree in shape")
                })
                .collect::<Vec<_>>()
        })
    });
    l.reduce_ms = ms;
    let mut optimizer = config.optimizer.build(config.schedule.at(step));
    optimizer
        .import_state(before.optimizer)
        .expect("the optimizer state matches");
    optimizer.set_learning_rate(config.schedule.at(step));
    let mut params = before.params;
    let (r, ms) = time_ms(|| tr.span("tensor.optim", || optimizer.step(&mut params, &reduced)));
    r.expect("the optimizer step succeeds");
    l.optim_ms = ms;
    tr.end(replay);
    out.check(bit_equal(&params, job.trainer.params()), || {
        format!("the serial replay of step {step} does not reach the trainer's parameters")
    });
    l
}

/// Resizes across device sets the job's VN count allows and returns the
/// median microseconds of one `Trainer::resize`.
fn resize_us(job: &mut Job, tr: &mut Tracer) -> f64 {
    let targets: Vec<Vec<DeviceId>> = if job.vns() >= 4 {
        [2, 4, 1, 2, 4, 1].into_iter().map(devices).collect()
    } else {
        // A one-VN job can only move between single devices.
        [1, 0, 1, 0]
            .into_iter()
            .map(|d| vec![DeviceId(d)])
            .collect()
    };
    let mut us = Vec::new();
    for target in targets {
        let open = tr.begin("core.resize");
        let (plan, ms) = time_ms(|| job.trainer.resize(&target));
        tr.end(open);
        plan.expect("resizing a replicated job succeeds");
        us.push(ms * 1e3);
    }
    median(&us)
}

/// The GEMMs of one step at micro-batch `mb`, `calls` per shape: the
/// replay with the median total time of `REPLAY_STEPS` replays.
fn gemm_replay(mb: usize, calls: usize, seed: u64, tr: &mut Tracer) -> kernels::GemmReplay {
    let shapes = kernels::mlp_gemm_shapes(&DIMS, mb);
    let mut gemms: Vec<_> = (0..REPLAY_STEPS)
        .map(|i| {
            let open = tr.begin("gemm.replay");
            let g = kernels::replay_gemms(&shapes, calls, seed ^ i as u64, tr);
            tr.end(open);
            g
        })
        .collect();
    gemms.sort_by(|a, b| a.total_ms().total_cmp(&b.total_ms()));
    gemms[gemms.len() / 2]
}

/// Runs the suite on `job` and appends every per-layer metric to `out`.
pub fn suite(
    job: &mut Job,
    seed: u64,
    sched: SchedLayers,
    overhead_pct: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let vns = job.vns() as usize;
    let mb = BATCH / vns;

    let steps: Vec<StepLayers> = (0..REPLAY_STEPS)
        .map(|_| replay_step(job, tr, out))
        .collect();
    let med = |f: fn(&StepLayers) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    let step_ms = med(|l| l.step_ms);
    let gather_ms = med(|l| l.gather_ms);
    let grad_ms = med(|l| l.grad_ms);
    let reduce_ms = med(|l| l.reduce_ms);
    let optim_ms = med(|l| l.optim_ms);
    let executor_ms = med(|l| l.step_ms - l.gather_ms - l.grad_ms - l.reduce_ms - l.optim_ms);

    let gemm = gemm_replay(mb, vns, seed, tr);
    // The 1-VN step's shapes, whatever the workload's VN count.
    let gemm_m256 = gemm_replay(BATCH, 1, seed, tr);
    let gemm_gflops = gemm.total_flops() / (gemm.total_ms() * 1e6);
    let fma = tr.span("machine.fma", || kernels::fma_gflops(5));
    let stream = tr.span("machine.stream", || kernels::stream_gbps(5));

    let resize = resize_us(job, tr);
    let mut store = new_store(seed);
    let cycles: Vec<_> = (0..CKPT_CYCLES)
        .map(|_| {
            let c = job.checkpoint_cycle(&mut store, tr);
            out.check(job.matches(&c.saved), || {
                "a probed checkpoint did not restore bit for bit".into()
            });
            c
        })
        .collect();
    let cmed =
        |f: fn(&crate::train::CkptCycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());

    let m: Vec<Metric> = vec![
        metric("data.gather_ms", gather_ms, "ms"),
        metric("models.grad_ms", grad_ms, "ms"),
        metric(
            "models.grad_gflops",
            gemm.total_flops() / (grad_ms * 1e6),
            "GFLOP/s",
        ),
        metric("tensor.gemm_ms", gemm.total_ms(), "ms"),
        metric("tensor.gemm_nn_gflops", gemm.gflops(Kind::Nn), "GFLOP/s"),
        metric("tensor.gemm_nt_gflops", gemm.gflops(Kind::Nt), "GFLOP/s"),
        metric("tensor.gemm_tn_gflops", gemm.gflops(Kind::Tn), "GFLOP/s"),
        metric(
            "tensor.gemm_m256_nn_gflops",
            gemm_m256.gflops(Kind::Nn),
            "GFLOP/s",
        ),
        metric(
            "tensor.gemm_m256_nt_gflops",
            gemm_m256.gflops(Kind::Nt),
            "GFLOP/s",
        ),
        metric(
            "tensor.gemm_m256_tn_gflops",
            gemm_m256.gflops(Kind::Tn),
            "GFLOP/s",
        ),
        metric("tensor.gemm_peak_pct", 100.0 * gemm_gflops / fma, "%"),
        metric("machine.fma_gflops", fma, "GFLOP/s"),
        metric("machine.stream_gbps", stream, "GB/s"),
        metric("tensor.reduce_ms", reduce_ms, "ms"),
        metric("tensor.optim_ms", optim_ms, "ms"),
        metric("tensor.pool_jobs", med(|l| l.pool_jobs), "count"),
        metric(
            "tensor.pool_serial_fallbacks",
            med(|l| l.pool_serial),
            "count",
        ),
        metric("core.step_ms", step_ms, "ms"),
        metric("core.executor_ms", executor_ms, "ms"),
        metric("core.executor_share", 100.0 * executor_ms / step_ms, "%"),
        metric("core.resize_us", resize, "us"),
        metric(
            "ckpt.save_stall_ms",
            cmed(|c| c.encode_ms + c.store_save_ms),
            "ms",
        ),
        metric(
            "ckpt.restore_stall_ms",
            cmed(|c| c.store_restore_ms + c.decode_ms),
            "ms",
        ),
        metric("core.ckpt_encode_ms", cmed(|c| c.encode_ms), "ms"),
        metric("core.ckpt_decode_ms", cmed(|c| c.decode_ms), "ms"),
        metric("core.ckpt_bytes", cmed(|c| c.json_bytes), "bytes"),
        metric("store.save_ms", cmed(|c| c.store_save_ms), "ms"),
        metric("store.restore_ms", cmed(|c| c.store_restore_ms), "ms"),
        metric("store.bytes_written", cmed(|c| c.stored_bytes), "bytes"),
        metric(
            "store.corruptions_detected",
            store.counters().corruptions_detected as f64,
            "count",
        ),
        metric("sched.allocate_ms", sched.allocate_ms, "ms"),
        metric("sched.allocate_calls", sched.allocate_calls, "count"),
        metric("sched.loop_ms", sched.loop_ms, "ms"),
        metric("sched.events", sched.events, "count"),
        metric("obs.monitor_ms", sched.monitor_ms, "ms"),
        metric("obs.events_recorded", sched.events_recorded, "count"),
        metric("bench.trace_overhead_pct", overhead_pct, "%"),
    ];
    out.metrics.extend(m);
}
