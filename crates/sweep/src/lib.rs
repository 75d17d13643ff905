//! Deterministic parallel sweep runner.
//!
//! Crash-schedule exploration and the bench figure grids are
//! embarrassingly parallel: every job — one crash case, one
//! (workload × scheme) cell — builds and drives its own independent
//! engine. This crate shards such jobs across a fixed-size pool of
//! `std::thread` workers pulling from a shared work queue, then merges
//! the results **in rank order**, so the output of a sweep is a pure
//! function of its job list: byte-identical regardless of thread count,
//! scheduling, or which worker ran which job. Jobs may arrive while the
//! pool runs ([`run_stream`]): a crash sweep adjudicates each seized
//! point while the capture run is still seizing the next.
//!
//! # Determinism contract
//!
//! 1. Every job is keyed by its rank: its position in the serial
//!    enumeration (a cell index, or a crash sweep's persist point). Ranks
//!    must be unique within a sweep; the merge asserts it.
//! 2. Results are merged back in rank order, whatever order the jobs were
//!    submitted in — a job submitted late or a worker finishing early or
//!    late cannot reorder the output.
//! 3. Job functions must themselves be deterministic in their inputs
//!    (the engine, workloads and `star-rng` all are) and must not share
//!    mutable state; the `Fn(&K, J) -> R + Sync` bound and the absence
//!    of mutable statics in the simulator enforce the latter.
//!
//! Under this contract `threads == 1` reproduces the serial sweep
//! exactly, and any other thread count reproduces `threads == 1`.
//!
//! ```
//! use star_sweep::run_merged;
//!
//! let jobs: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
//! let serial = run_merged(1, jobs.clone(), |_, j| j * j);
//! let parallel = run_merged(4, jobs, |_, j| j * j);
//! assert_eq!(serial, parallel);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread;

/// Runs every `(rank, job)` through `f` on a pool of `threads` workers
/// and returns the results **in rank order**. Each job is handed to `f`
/// by value, so `f` may consume what it judges.
///
/// `threads` is clamped to `1..=jobs.len()`; `threads <= 1` runs the
/// jobs on the caller's thread in rank order, so a serial sweep and a
/// 1-thread sweep are the same code path. This is [`run_stream`]'s pool
/// with the rank-sorted `jobs` queued before it starts.
///
/// # Panics
///
/// Panics if two jobs share a rank (the ordered merge would be
/// ambiguous), and propagates the first panic of any job after the pool
/// has drained or abandoned the remaining jobs.
pub fn run_merged<K, J, R, F>(threads: usize, mut jobs: Vec<(K, J)>, f: F) -> Vec<R>
where
    K: Ord + Send,
    J: Send,
    R: Send,
    F: Fn(&K, J) -> R + Sync,
{
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    let threads = threads.max(1).min(jobs.len().max(1));
    run_pool(threads, jobs.into(), |_| (), f).1
}

/// Runs every job `feed` submits through `f` while `feed` is still
/// running, and returns what `feed` returned with the results **in rank
/// order**.
///
/// `feed` runs on the calling thread and hands each job to the pool
/// through its `submit` argument the moment the job exists. With
/// `threads` = N, N − 1 spawned workers run jobs while the caller feeds;
/// once `feed` returns, the caller works through what is left beside
/// them. `threads <= 1` spawns nothing and runs each job inline as it is
/// submitted. `f` takes each job by value, so a feed that outpaces the
/// workers holds only the jobs still queued.
///
/// # Panics
///
/// Panics if two jobs share a rank (the ordered merge would be
/// ambiguous), and propagates the first panic of `feed` or of any job
/// after the pool has drained or abandoned the remaining jobs.
pub fn run_stream<K, J, R, T, F>(
    threads: usize,
    feed: impl FnOnce(&mut dyn FnMut(K, J)) -> T,
    f: F,
) -> (T, Vec<R>)
where
    K: Ord + Send,
    J: Send,
    R: Send,
    F: Fn(&K, J) -> R + Sync,
{
    run_pool(threads, VecDeque::new(), feed, f)
}

/// [`run_stream`] with `queued` already waiting when the pool starts, so
/// a job list known up front costs no submission per job.
fn run_pool<K, J, R, T, F>(
    threads: usize,
    queued: VecDeque<(K, J)>,
    feed: impl FnOnce(&mut dyn FnMut(K, J)) -> T,
    f: F,
) -> (T, Vec<R>)
where
    K: Ord + Send,
    J: Send,
    R: Send,
    F: Fn(&K, J) -> R + Sync,
{
    let pool = Pool {
        queue: Mutex::new(Queue {
            jobs: queued,
            idle: 0,
            closed: false,
        }),
        ready: Condvar::new(),
    };
    let (fed, mut done) = thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    pool.work(&f, &mut done);
                    done
                })
            })
            .collect();
        let mut done = Vec::new();
        let closer = Closer(&pool);
        let fed = feed(&mut |key, job| {
            if workers.is_empty() {
                run(&f, key, job, &mut done);
            } else {
                pool.submit(key, job);
            }
        });
        drop(closer);
        pool.work(&f, &mut done);
        for worker in workers {
            done.extend(worker.join().expect("a sweep job panicked"));
        }
        (fed, done)
    });
    done.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        done.windows(2).all(|w| w[0].0 < w[1].0),
        "sweep ranks must be unique"
    );
    (fed, done.into_iter().map(|(_, r)| r).collect())
}

/// The jobs submitted but not yet taken, how many workers wait for one,
/// and whether more can come.
struct Queue<K, J> {
    jobs: VecDeque<(K, J)>,
    idle: usize,
    closed: bool,
}

/// The shared state of one [`run_stream`]: its work queue and the
/// signal that a job arrived or the queue closed.
struct Pool<K, J> {
    queue: Mutex<Queue<K, J>>,
    ready: Condvar,
}

/// Locks `m`. No job runs under a pool lock and every update under one
/// is a single push, pop or flag, so a lock poisoned by a panicking
/// thread still guards a consistent queue.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<K, J> Pool<K, J> {
    fn submit(&self, key: K, job: J) {
        let mut queue = lock(&self.queue);
        queue.jobs.push_back((key, job));
        if queue.idle > 0 {
            self.ready.notify_one();
        }
    }

    /// The worker loop: runs queued jobs until the queue is empty and
    /// closed.
    fn work<R, F: Fn(&K, J) -> R>(&self, f: &F, done: &mut Vec<(K, R)>) {
        while let Some((key, job)) = self.next() {
            run(f, key, job, done);
        }
    }

    fn next(&self) -> Option<(K, J)> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            queue.idle += 1;
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            queue.idle -= 1;
        }
    }
}

/// Runs one job, keeping only its result under its rank.
fn run<K, J, R, F: Fn(&K, J) -> R>(f: &F, key: K, job: J, done: &mut Vec<(K, R)>) {
    let r = {
        star_scope::span!("sweep/job");
        f(&key, job)
    };
    done.push((key, r));
}

/// Closes the queue when the feed ends, so waiting workers drain it and
/// exit; when the feed or an inline job unwinds, the queued jobs are
/// abandoned instead.
struct Closer<'a, K, J>(&'a Pool<K, J>);

impl<K, J> Drop for Closer<'_, K, J> {
    fn drop(&mut self) {
        let mut queue = lock(&self.0.queue);
        queue.closed = true;
        if thread::panicking() {
            queue.jobs.clear();
        }
        drop(queue);
        self.0.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i, i)).collect()
    }

    #[test]
    fn parallel_matches_serial_for_any_thread_count() {
        let serial = run_merged(1, ranked(97), |_, j| j.wrapping_mul(0x9e37_79b9));
        for threads in [2, 3, 4, 8, 200] {
            let par = run_merged(threads, ranked(97), |_, j| j.wrapping_mul(0x9e37_79b9));
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn results_come_back_in_key_order_even_when_submitted_shuffled() {
        let mut jobs = ranked(50);
        jobs.reverse();
        jobs.swap(3, 40);
        // The same jobs fed to a running pool: after every seventh job
        // the feed waits until some job has finished, so later jobs
        // arrive while earlier ones run.
        let fed = |threads| {
            let (finished, wait) = std::sync::mpsc::channel();
            let feed = |submit: &mut dyn FnMut(u64, u64)| {
                for (i, (k, j)) in jobs.clone().into_iter().enumerate() {
                    if i % 7 == 6 {
                        wait.recv().expect("a job finished");
                    }
                    submit(k, j);
                }
                "fed"
            };
            let (back, out) = run_stream(threads, feed, |&k, _| {
                finished.send(()).expect("the feed listens");
                k
            });
            assert_eq!(back, "fed");
            out
        };
        for out in [run_merged(4, jobs.clone(), |&k, _| k), fed(1), fed(4)] {
            assert_eq!(out, (0..50).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn empty_and_single_job_sweeps_work() {
        let none: Vec<(u64, u64)> = Vec::new();
        assert!(run_merged(4, none, |_, j| j).is_empty());
        assert_eq!(run_merged(4, vec![(7u64, 3u64)], |_, j| j + 1), vec![4]);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_keys_are_rejected() {
        run_merged(2, vec![(1u64, 0u64), (1u64, 1u64)], |_, j| j);
    }

    #[test]
    #[should_panic(expected = "feed failed")]
    fn a_panicking_feed_releases_the_waiting_workers() {
        run_stream(
            3,
            |submit: &mut dyn FnMut(u64, u64)| {
                submit(1, 1);
                panic!("feed failed");
            },
            |_, j| j,
        );
    }

    #[test]
    fn oversubscribed_pool_is_clamped() {
        // More threads than jobs must not hang or skip work.
        let out = run_merged(64, ranked(3), |_, j| j);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
