//! A small parallel parameter-sweep driver.
//!
//! Experiment grids (protocol × sharing level × `n` × `w`) are
//! embarrassingly parallel and individually deterministic; this driver
//! fans them out over `std::thread::scope` workers and collects results
//! keyed by grid index, preserving grid order regardless of completion
//! order. Neither mutex is held across `f`, so a panicking experiment
//! cannot poison one.

use std::sync::Mutex;

const UNPOISONED: &str = "no sweep worker panics while holding a lock";

/// Runs `f` over every item of `inputs`, in parallel across up to
/// `threads` workers, returning outputs in input order.
///
/// `f` must be deterministic per input: results are keyed by index, so
/// the output is independent of scheduling.
///
/// # Panics
///
/// Propagates panics from `f` (a panicking experiment is a bug).
pub fn run<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1);
    let results: Mutex<Vec<Option<O>>> = Mutex::new((0..inputs.len()).map(|_| None).collect());
    let work: Mutex<Vec<(usize, I)>> = Mutex::new(inputs.into_iter().enumerate().rev().collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let item = work.lock().expect(UNPOISONED).pop();
                let Some((index, input)) = item else { break };
                let output = f(&input);
                results.lock().expect(UNPOISONED)[index] = Some(output);
            });
        }
    });

    results
        .into_inner()
        .expect(UNPOISONED)
        .into_iter()
        .map(|slot| slot.expect("every input produces an output"))
        .collect()
}

/// A reasonable worker count for sweeps on this machine.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_preserve_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let outputs = run(inputs, 8, |&x| x * 2);
        assert_eq!(outputs, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let outputs = run(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(outputs, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let outputs: Vec<i32> = run(Vec::<i32>::new(), 4, |&x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn heavier_work_than_threads() {
        let outputs = run((0..7).collect(), 16, |&x: &i32| x * x);
        assert_eq!(outputs, vec![0, 1, 4, 9, 16, 25, 36]);
    }
}
