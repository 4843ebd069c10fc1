//! `TimedFace`: the decorator that takes the end-to-end numbers from
//! outside the program.
//!
//! It wraps the face a workload runs on and adds nothing to the program
//! under test. Rank 0's wrapper stamps the clock immediately before
//! `request_checkpoint()`; every rank's wrapper stamps the first return
//! from any face call after which `round()` has advanced — the moment
//! the application has control again. With `time_calls` it also sums the
//! time spent inside point-to-point and collective calls.

use mpisim::ReduceOp;
use std::time::{Duration, Instant};
use workloads::face::{CommH, MpiFace, ReqH, WlResult};

/// Count and summed duration of one class of face calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotal {
    pub calls: u64,
    pub busy: Duration,
}

impl CallTotal {
    pub fn add(&mut self, other: CallTotal) {
        self.calls += other.calls;
        self.busy += other.busy;
    }

    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// What one rank's wrapper recorded during one run.
#[derive(Debug, Clone, Default)]
pub struct FaceLog {
    /// `(round() before the request, stamp)` per `request_checkpoint()`.
    pub requests: Vec<(u64, Instant)>,
    /// `(round() after the advance, stamp)` per observed advance.
    pub resumes: Vec<(u64, Instant)>,
    pub p2p: CallTotal,
    pub coll: CallTotal,
}

#[derive(Clone, Copy)]
enum Class {
    P2p,
    Coll,
    Other,
}

pub struct TimedFace<'h, F> {
    inner: F,
    last_round: u64,
    time_calls: bool,
    on_request: Option<Box<dyn FnMut(u64) + 'h>>,
    log: FaceLog,
}

impl<'h, F: MpiFace> TimedFace<'h, F> {
    pub fn new(inner: F, time_calls: bool) -> Self {
        let last_round = inner.round();
        TimedFace {
            inner,
            last_round,
            time_calls,
            on_request: None,
            log: FaceLog::default(),
        }
    }

    /// Run `hook(round())` before each checkpoint request is stamped, so
    /// whatever it does stays outside the measured stall.
    pub fn on_request(mut self, hook: impl FnMut(u64) + 'h) -> Self {
        self.on_request = Some(Box::new(hook));
        self
    }

    pub fn into_log(self) -> FaceLog {
        self.log
    }

    fn call<T>(&mut self, class: Class, f: impl FnOnce(&mut F) -> T) -> T {
        let started = self.time_calls.then(Instant::now);
        let out = f(&mut self.inner);
        let now = Instant::now();
        if let Some(t0) = started {
            let total = match class {
                Class::P2p => Some(&mut self.log.p2p),
                Class::Coll => Some(&mut self.log.coll),
                Class::Other => None,
            };
            if let Some(t) = total {
                t.calls += 1;
                t.busy += now - t0;
            }
        }
        let round = self.inner.round();
        if round != self.last_round {
            self.last_round = round;
            self.log.resumes.push((round, now));
        }
        out
    }
}

impl<F: MpiFace> MpiFace for TimedFace<'_, F> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn comm_rank(&mut self, c: CommH) -> WlResult<usize> {
        self.call(Class::Other, |f| f.comm_rank(c))
    }
    fn comm_size(&mut self, c: CommH) -> WlResult<usize> {
        self.call(Class::Other, |f| f.comm_size(c))
    }
    fn send(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<()> {
        self.call(Class::P2p, |f| f.send(c, dst, tag, data))
    }
    fn isend(&mut self, c: CommH, dst: usize, tag: i32, data: &[u8]) -> WlResult<ReqH> {
        self.call(Class::P2p, |f| f.isend(c, dst, tag, data))
    }
    fn irecv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<ReqH> {
        self.call(Class::P2p, |f| f.irecv(c, src, tag))
    }
    fn recv(&mut self, c: CommH, src: usize, tag: i32) -> WlResult<Vec<u8>> {
        self.call(Class::P2p, |f| f.recv(c, src, tag))
    }
    fn wait(&mut self, req: ReqH) -> WlResult<Vec<u8>> {
        self.call(Class::P2p, |f| f.wait(req))
    }
    fn barrier(&mut self, c: CommH) -> WlResult<()> {
        self.call(Class::Coll, |f| f.barrier(c))
    }
    fn allreduce_f64(&mut self, c: CommH, op: ReduceOp, data: &[f64]) -> WlResult<Vec<f64>> {
        self.call(Class::Coll, |f| f.allreduce_f64(c, op, data))
    }
    fn allreduce_u64(&mut self, c: CommH, op: ReduceOp, data: &[u64]) -> WlResult<Vec<u64>> {
        self.call(Class::Coll, |f| f.allreduce_u64(c, op, data))
    }
    fn bcast(&mut self, c: CommH, root: usize, data: &mut Vec<u8>) -> WlResult<()> {
        self.call(Class::Coll, |f| f.bcast(c, root, data))
    }
    fn alltoall(&mut self, c: CommH, chunks: &[Vec<u8>]) -> WlResult<Vec<Vec<u8>>> {
        self.call(Class::Coll, |f| f.alltoall(c, chunks))
    }
    fn gather(&mut self, c: CommH, root: usize, data: &[u8]) -> WlResult<Option<Vec<Vec<u8>>>> {
        self.call(Class::Coll, |f| f.gather(c, root, data))
    }
    fn split(&mut self, c: CommH, color: i32, key: i32) -> WlResult<Option<CommH>> {
        self.call(Class::Coll, |f| f.split(c, color, key))
    }
    fn compute(&mut self, units: u64) -> WlResult<()> {
        self.call(Class::Other, |f| f.compute(units))
    }
    fn save(&mut self, key: &str, bytes: Vec<u8>) {
        self.inner.save(key, bytes)
    }
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.load(key)
    }
    fn step_commit(&mut self) -> WlResult<()> {
        self.call(Class::Other, |f| f.step_commit())
    }
    fn request_checkpoint(&mut self) -> WlResult<()> {
        let round = self.inner.round();
        if let Some(hook) = &mut self.on_request {
            hook(round);
        }
        self.log.requests.push((round, Instant::now()));
        self.call(Class::Other, |f| f.request_checkpoint())
    }
    fn round(&self) -> u64 {
        self.inner.round()
    }
}

/// One checkpoint round as the application saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// `round()` value the round completed as.
    pub round: u64,
    pub requested: Instant,
    /// The rank whose application code resumed last, and when.
    pub last_rank: usize,
    pub resumed: Instant,
}

impl Stall {
    pub fn ms(&self) -> f64 {
        self.resumed.duration_since(self.requested).as_secs_f64() * 1e3
    }
}

/// The stall of every requested round: `max over ranks(resume stamp) −
/// request stamp`. A stamp belongs to the round it reports: a rank that
/// sat inside one face call across two rounds (a leaf of an allreduce
/// whose root has already moved on) was never back in application code
/// between them, so it has no stamp for the first and its one stamp
/// counts towards the second. A request whose round no rank resumed from
/// is returned as `Err(round)`.
pub fn stalls(logs: &[FaceLog]) -> Vec<Result<Stall, u64>> {
    let mut out = Vec::new();
    for log in logs {
        for &(before, requested) in &log.requests {
            let round = before + 1;
            let last = logs
                .iter()
                .enumerate()
                .flat_map(|(rank, l)| {
                    l.resumes
                        .iter()
                        .filter(move |(r, _)| *r == round)
                        .map(move |&(_, t)| (rank, t))
                })
                .max_by_key(|&(_, t)| t);
            out.push(match last {
                Some((last_rank, resumed)) => Ok(Stall {
                    round,
                    requested,
                    last_rank,
                    resumed,
                }),
                None => Err(round),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A face whose `round()` the test advances by hand.
    struct FakeFace {
        round: Rc<Cell<u64>>,
        advance_on_barrier: bool,
    }

    impl MpiFace for FakeFace {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            1
        }
        fn comm_rank(&mut self, _: CommH) -> WlResult<usize> {
            Ok(0)
        }
        fn comm_size(&mut self, _: CommH) -> WlResult<usize> {
            Ok(1)
        }
        fn send(&mut self, _: CommH, _: usize, _: i32, _: &[u8]) -> WlResult<()> {
            Ok(())
        }
        fn isend(&mut self, _: CommH, _: usize, _: i32, _: &[u8]) -> WlResult<ReqH> {
            Ok(ReqH(1))
        }
        fn irecv(&mut self, _: CommH, _: usize, _: i32) -> WlResult<ReqH> {
            Ok(ReqH(2))
        }
        fn recv(&mut self, _: CommH, _: usize, _: i32) -> WlResult<Vec<u8>> {
            Ok(Vec::new())
        }
        fn wait(&mut self, _: ReqH) -> WlResult<Vec<u8>> {
            Ok(Vec::new())
        }
        fn barrier(&mut self, _: CommH) -> WlResult<()> {
            if self.advance_on_barrier {
                self.round.set(self.round.get() + 1);
            }
            Ok(())
        }
        fn allreduce_f64(&mut self, _: CommH, _: ReduceOp, d: &[f64]) -> WlResult<Vec<f64>> {
            Ok(d.to_vec())
        }
        fn allreduce_u64(&mut self, _: CommH, _: ReduceOp, d: &[u64]) -> WlResult<Vec<u64>> {
            Ok(d.to_vec())
        }
        fn bcast(&mut self, _: CommH, _: usize, _: &mut Vec<u8>) -> WlResult<()> {
            Ok(())
        }
        fn alltoall(&mut self, _: CommH, c: &[Vec<u8>]) -> WlResult<Vec<Vec<u8>>> {
            Ok(c.to_vec())
        }
        fn gather(&mut self, _: CommH, _: usize, _: &[u8]) -> WlResult<Option<Vec<Vec<u8>>>> {
            Ok(None)
        }
        fn split(&mut self, _: CommH, _: i32, _: i32) -> WlResult<Option<CommH>> {
            Ok(None)
        }
        fn compute(&mut self, _: u64) -> WlResult<()> {
            Ok(())
        }
        fn save(&mut self, _: &str, _: Vec<u8>) {}
        fn load(&self, _: &str) -> Option<Vec<u8>> {
            None
        }
        fn step_commit(&mut self) -> WlResult<()> {
            Ok(())
        }
        fn request_checkpoint(&mut self) -> WlResult<()> {
            Ok(())
        }
        fn round(&self) -> u64 {
            self.round.get()
        }
    }

    const WORLD: CommH = workloads::face::COMM_WORLD;

    #[test]
    fn stamps_request_and_first_return_after_the_round_advances() {
        let round = Rc::new(Cell::new(4));
        let mut f = TimedFace::new(
            FakeFace {
                round: round.clone(),
                advance_on_barrier: true,
            },
            true,
        );
        f.isend(WORLD, 0, 1, &[]).unwrap();
        f.request_checkpoint().unwrap();
        f.wait(ReqH(1)).unwrap(); // round still 4: no resume stamp
        f.barrier(WORLD).unwrap(); // the checkpoint "happens" in here
        f.wait(ReqH(2)).unwrap(); // already stamped: no second stamp
        let log = f.into_log();
        assert_eq!(log.requests.len(), 1);
        assert_eq!(log.requests[0].0, 4);
        assert_eq!(log.resumes.len(), 1);
        assert_eq!(log.resumes[0].0, 5);
        assert!(log.resumes[0].1 >= log.requests[0].1);
        assert_eq!(log.p2p.calls, 3);
        assert_eq!(log.coll.calls, 1);
    }

    #[test]
    fn call_timing_is_off_unless_asked_for() {
        let mut f = TimedFace::new(
            FakeFace {
                round: Rc::new(Cell::new(0)),
                advance_on_barrier: false,
            },
            false,
        );
        f.barrier(WORLD).unwrap();
        f.recv(WORLD, 0, 0).unwrap();
        let log = f.into_log();
        assert_eq!(log.p2p, CallTotal::default());
        assert_eq!(log.coll, CallTotal::default());
        assert!(log.resumes.is_empty());
    }

    fn ms(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn stall_is_last_resume_minus_request() {
        let t = Instant::now();
        let logs = vec![
            FaceLog {
                requests: vec![(0, ms(t, 10)), (1, ms(t, 200))],
                resumes: vec![(1, ms(t, 50)), (2, ms(t, 260))],
                ..FaceLog::default()
            },
            FaceLog {
                resumes: vec![(1, ms(t, 95)), (2, ms(t, 240))],
                ..FaceLog::default()
            },
            FaceLog {
                resumes: vec![(1, ms(t, 70)), (2, ms(t, 250))],
                ..FaceLog::default()
            },
        ];
        let s: Vec<Stall> = stalls(&logs).into_iter().map(Result::unwrap).collect();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].round, s[0].last_rank), (1, 1));
        assert!((s[0].ms() - 85.0).abs() < 1e-9);
        assert_eq!((s[1].round, s[1].last_rank), (2, 0));
        assert!((s[1].ms() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn a_stamp_counts_towards_the_round_it_reports() {
        let t = Instant::now();
        let logs = vec![
            FaceLog {
                requests: vec![(0, ms(t, 1)), (1, ms(t, 20))],
                resumes: vec![(1, ms(t, 5)), (2, ms(t, 30))],
                ..FaceLog::default()
            },
            // Inside one call across both rounds: one stamp, for round 2.
            FaceLog {
                resumes: vec![(2, ms(t, 45))],
                ..FaceLog::default()
            },
        ];
        let s: Vec<Stall> = stalls(&logs).into_iter().map(Result::unwrap).collect();
        assert_eq!((s[0].last_rank, s[1].last_rank), (0, 1));
        assert!((s[0].ms() - 4.0).abs() < 1e-9);
        assert!((s[1].ms() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn a_round_nobody_resumed_from_fails() {
        let t = Instant::now();
        let logs = vec![FaceLog {
            requests: vec![(0, ms(t, 1))],
            ..FaceLog::default()
        }];
        assert_eq!(stalls(&logs), vec![Err(1)]);
    }

    #[test]
    fn call_total_mean() {
        let mut a = CallTotal {
            calls: 3,
            busy: Duration::from_micros(30),
        };
        a.add(CallTotal {
            calls: 1,
            busy: Duration::from_micros(10),
        });
        assert!((a.mean_us() - 10.0).abs() < 1e-9);
        assert_eq!(CallTotal::default().mean_us(), 0.0);
    }
}
