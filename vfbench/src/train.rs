//! The training workloads: `train_vn1`, `train_vn16` and `elastic_vn16`.
//!
//! All three train the same MLP (512→1024→1024→10) on the same seeded
//! `TeacherTask` at global batch 256 with plain SGD. They differ in the
//! virtual-node count and in what happens between steps.

use crate::measure::{derive, time_ms, Outcome, Stamp};
use crate::reference;
use crate::spans::Tracer;
use crate::Round;
use std::sync::Arc;
use vf_core::{Checkpoint, Trainer, TrainerConfig};
use vf_data::synthetic::TeacherTask;
use vf_data::Dataset;
use vf_device::DeviceId;
use vf_models::Mlp;
use vf_store::{CheckpointStore, RetentionPolicy, StoreConfig};
use vf_tensor::Tensor;

/// Layer widths, input first.
pub const DIMS: [usize; 4] = [512, 1024, 1024, 10];
pub const BATCH: usize = 256;
pub const EXAMPLES: usize = 4096;
pub const LR: f32 = 0.02;
/// Steps per round of `train_vn1` / `train_vn16`.
const TRAIN_ROUND_STEPS: usize = 8;
/// Steps `elastic_vn16` runs on each device count of a round.
const ELASTIC_STEPS_PER_SIZE: usize = 3;
/// The device counts `elastic_vn16` visits in every round.
const ELASTIC_SIZES: [u32; 3] = [1, 2, 4];

// Sub-seed streams of `--seed`.
const DATA_STREAM: u64 = 1;
const INIT_STREAM: u64 = 2;
const STORE_STREAM: u64 = 3;

pub fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

/// A model, its data, and a trainer over them.
pub struct Job {
    /// The `--seed` the job was derived from.
    pub seed: u64,
    pub dataset: Arc<Dataset>,
    pub arch: Arc<Mlp>,
    pub trainer: Trainer,
}

impl Job {
    /// The seeded job at `vns` virtual nodes on one device.
    pub fn new(seed: u64, vns: u32) -> Job {
        let dataset = TeacherTask {
            num_examples: EXAMPLES,
            dim: DIMS[0],
            hidden: 64,
            num_classes: DIMS[3],
            label_noise: 0.05,
            seed: derive(seed, DATA_STREAM),
        }
        .generate()
        .expect("a non-empty teacher task generates");
        let dataset = Arc::new(dataset);
        let arch = Arc::new(Mlp::new(DIMS[0], DIMS[1..3].to_vec(), DIMS[3]));
        let config = TrainerConfig::simple(vns, BATCH, LR, derive(seed, INIT_STREAM));
        let trainer = Trainer::new(arch.clone(), dataset.clone(), config, &devices(1))
            .expect("the benchmark job configuration is valid");
        Job {
            seed,
            dataset,
            arch,
            trainer,
        }
    }

    pub fn vns(&self) -> u32 {
        self.trainer.config().total_vns
    }

    /// One training step, as a span; returns its loss and wall ms.
    pub fn step(&mut self, tr: &mut Tracer) -> (f32, f64) {
        tr.next_group();
        let open = tr.begin("core.step");
        let (report, ms) = time_ms(|| self.trainer.step());
        tr.end(open);
        (report.expect("training steps succeed").loss, ms)
    }

    /// One durable checkpoint cycle: save through `to_checkpoint` →
    /// `to_json` → `CheckpointStore::save`, then restore through
    /// `restore_latest` → `from_json` → `Trainer::from_checkpoint` onto the
    /// current devices, and continue on the restored trainer.
    pub fn checkpoint_cycle(&mut self, store: &mut CheckpointStore, tr: &mut Tracer) -> CkptCycle {
        tr.next_group();
        let save = tr.begin("ckpt.save");
        let (ckpt, encode_ms) = time_ms(|| {
            tr.span("core.ckpt_encode", || {
                let ckpt = self.trainer.to_checkpoint();
                let json = ckpt.to_json().expect("a finite checkpoint encodes");
                (ckpt, json)
            })
        });
        let (saved, json) = ckpt;
        let (report, save_ms) =
            time_ms(|| tr.span("store.save", || store.save(saved.step, json.as_bytes())));
        let report = report.expect("a quiet store saves");
        let bytes = json.len();
        drop(json);
        tr.end(save);

        let restore = tr.begin("ckpt.restore");
        let (payload, restore_ms) = time_ms(|| tr.span("store.restore", || store.restore_latest()));
        let (_, payload) = payload.expect("a quiet store restores its latest save");
        let devices = self.trainer.mapping().devices();
        let (restored, decode_ms) = time_ms(|| {
            tr.span("core.ckpt_decode", || {
                let text = std::str::from_utf8(&payload).expect("checkpoints are UTF-8 JSON");
                let ckpt = Checkpoint::from_json(text).expect("a saved checkpoint decodes");
                Trainer::from_checkpoint(self.arch.clone(), self.dataset.clone(), ckpt, &devices)
                    .expect("a decoded checkpoint restores")
            })
        });
        tr.end(restore);
        self.trainer = restored;
        CkptCycle {
            encode_ms,
            decode_ms,
            store_save_ms: save_ms,
            store_restore_ms: restore_ms,
            json_bytes: bytes as f64,
            stored_bytes: report.bytes as f64,
            saved,
        }
    }

    /// Whether the live trainer holds exactly the state of `saved`.
    pub fn matches(&self, saved: &Checkpoint) -> bool {
        let now = self.trainer.to_checkpoint();
        now.step == saved.step
            && bit_equal(&now.params, &saved.params)
            && bit_equal(&now.optimizer.tensors, &saved.optimizer.tensors)
            && now.optimizer.steps == saved.optimizer.steps
    }
}

/// What one checkpoint cycle cost.
pub struct CkptCycle {
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub store_save_ms: f64,
    pub store_restore_ms: f64,
    pub json_bytes: f64,
    pub stored_bytes: f64,
    pub saved: Checkpoint,
}

/// A fault-free store keeping the two newest checkpoints.
pub fn new_store(seed: u64) -> CheckpointStore {
    let mut cfg = StoreConfig::quiet(derive(seed, STORE_STREAM));
    cfg.retention = RetentionPolicy { keep_last: 2 };
    CheckpointStore::new(cfg).expect("a quiet store configuration is valid")
}

pub fn bit_equal(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// The losses the convergence check compares.
struct Progress {
    /// Loss of step 0.
    initial_loss: f32,
    /// Mean loss over the steps of the latest round.
    final_loss: f32,
}

fn mean(v: &[f32]) -> f32 {
    v.iter().sum::<f32>() / v.len() as f32
}

/// The first (untimed) step of a job, checked against the f64 reference.
fn checked_first_step(job: &mut Job, out: &mut Outcome) -> Progress {
    assert_eq!(job.trainer.steps_done(), 0);
    let p0 = job.trainer.params().to_vec();
    let report = job.trainer.step().expect("the first step succeeds");
    // The same global batch the trainer drew for step 0.
    let plan =
        vf_data::batching::BatchPlan::new(job.dataset.len(), BATCH, job.trainer.config().seed)
            .expect("the batch fits the dataset");
    let (x, y) = job
        .dataset
        .gather(&plan.batch_at(0).indices)
        .expect("batch indices are in range");
    let (loss, grads) = reference::loss_and_grads(&p0, &x, &y);
    let loss_err = (f64::from(report.loss) - loss).abs() / loss.abs();
    out.check(loss_err <= reference::LOSS_RTOL, || {
        format!(
            "step-0 loss {} differs from the f64 reference {loss} by {loss_err:e} (relative)",
            report.loss
        )
    });
    let (worst, what) = reference::check_update(&p0, job.trainer.params(), &grads, f64::from(LR));
    out.check(worst <= 1.0, || {
        format!("step-0 update outside the f32 tolerance: {what}")
    });
    println!(
        "f64 reference: step-0 loss relative error {loss_err:.2e} (tolerance {:.0e}); \
         worst update error {:.1}% of its tolerance",
        reference::LOSS_RTOL,
        100.0 * worst
    );
    Progress {
        initial_loss: report.loss,
        final_loss: report.loss,
    }
}

fn check_loss_fell(p: &Progress, out: &mut Outcome) {
    out.check(p.final_loss < p.initial_loss, || {
        format!(
            "final loss {} (mean of the last round) is not below the step-0 loss {}",
            p.final_loss, p.initial_loss
        )
    });
}

/// `train_vn1` / `train_vn16`: plain training at a fixed VN count.
pub struct TrainWorkload {
    pub job: Job,
    progress: Progress,
}

impl TrainWorkload {
    /// Takes a freshly built job and runs its checked first step.
    pub fn start(mut job: Job, out: &mut Outcome) -> Self {
        let progress = checked_first_step(&mut job, out);
        TrainWorkload { job, progress }
    }

    /// One round: a fixed number of steps.
    pub fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut losses = Vec::with_capacity(TRAIN_ROUND_STEPS);
        let st = Stamp::now();
        for _ in 0..TRAIN_ROUND_STEPS {
            let (loss, ms) = self.job.step(tr);
            round.op_ms.push(ms);
            losses.push(loss);
        }
        (round.wall_s, round.cpu_s) = st.elapsed();
        round.busy_s = round.wall_s;
        round.items = (TRAIN_ROUND_STEPS * BATCH) as f64;
        round.ops = TRAIN_ROUND_STEPS as u64;
        self.progress.final_loss = mean(&losses);
        round
    }

    /// The convergence check, then the elastic path, untimed: a fresh copy
    /// of the job goes through one `elastic_vn16` round and must end
    /// bit-identical to an uninterrupted run. A job with fewer VNs than
    /// the largest device count (`train_vn1`) cannot take that path.
    pub fn finish(&self, out: &mut Outcome) {
        check_loss_fell(&self.progress, out);
        let largest = ELASTIC_SIZES.iter().copied().max().unwrap_or(1);
        if self.job.vns() >= largest {
            let mut copy = Job::new(self.job.seed, self.job.vns());
            let (round, _) = elastic_round(
                &mut copy,
                &mut new_store(self.job.seed),
                &mut Tracer::new(false),
                out,
            );
            out.attempted += round.ops;
            check_reproducible(&copy, out);
        }
    }
}

/// One `elastic_vn16` round: a resize to each of 1, 2 and 4 devices with a
/// few steps on each, then one checkpoint save and restore, which must
/// restore bit for bit. Returns the round and its losses.
fn elastic_round(
    job: &mut Job,
    store: &mut CheckpointStore,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Round, Vec<f32>) {
    let mut round = Round::default();
    let mut losses = Vec::new();
    let st = Stamp::now();
    for n in ELASTIC_SIZES {
        let open = tr.begin("core.resize");
        let plan = job.trainer.resize(&devices(n));
        tr.end(open);
        plan.expect("resizing a replicated job succeeds");
        for _ in 0..ELASTIC_STEPS_PER_SIZE {
            let (loss, ms) = job.step(tr);
            round.op_ms.push(ms);
            losses.push(loss);
        }
    }
    let cycle = job.checkpoint_cycle(store, tr);
    (round.wall_s, round.cpu_s) = st.elapsed();
    // The throughput counts the resize and checkpoint stalls.
    round.busy_s = round.wall_s;
    let steps = ELASTIC_SIZES.len() * ELASTIC_STEPS_PER_SIZE;
    round.items = (steps * BATCH) as f64;
    round.ops = (steps + ELASTIC_SIZES.len() + 1) as u64;
    out.check(job.matches(&cycle.saved), || {
        format!(
            "the checkpoint of step {} did not restore bit for bit",
            cycle.saved.step
        )
    });
    (round, losses)
}

/// The paper's reproducibility guarantee: an uninterrupted single-device
/// run of the same VN count, batch, seed and step count reaches the
/// parameters of `job` bit for bit.
fn check_reproducible(job: &Job, out: &mut Outcome) {
    let steps = job.trainer.steps_done();
    let mut plain = Job::new(job.seed, job.vns());
    for _ in 0..steps {
        plain.trainer.step().expect("reference steps succeed");
    }
    out.check(bit_equal(plain.trainer.params(), job.trainer.params()), || {
        format!("after {steps} steps the elastic run differs from an uninterrupted single-device run")
    });
}

/// `elastic_vn16`: 16 VNs resized in place across 1, 2 and 4 devices, with
/// a durable checkpoint-restart every round.
pub struct ElasticWorkload {
    pub job: Job,
    store: CheckpointStore,
    progress: Progress,
}

impl ElasticWorkload {
    pub fn start((mut job, store): (Job, CheckpointStore), out: &mut Outcome) -> Self {
        let progress = checked_first_step(&mut job, out);
        ElasticWorkload {
            job,
            store,
            progress,
        }
    }

    pub fn round(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Round {
        let (round, losses) = elastic_round(&mut self.job, &mut self.store, tr, out);
        self.progress.final_loss = mean(&losses);
        round
    }

    pub fn finish(&self, out: &mut Outcome) {
        check_loss_fell(&self.progress, out);
        check_reproducible(&self.job, out);
    }
}
