//! The workspace's one scoped-thread map: independent, individually
//! deterministic jobs — the model checker's frontier chunks, an
//! experiment grid's cells — fanned out over `std::thread::scope`
//! workers, with outputs collected in input order whatever order they
//! finish in.

use std::sync::Mutex;

const UNPOISONED: &str = "no worker panics while holding a lock";

/// Runs `f` over every input, in parallel across up to `threads` scoped
/// workers, and returns the outputs in input order. With at most one
/// thread or one input it runs inline on the calling thread.
///
/// Workers pop inputs off one shared work list and key each output by its
/// input's index, so the result does not depend on scheduling as long as
/// `f` is deterministic per input. Neither lock is held across `f`, so a
/// panicking job cannot poison one.
///
/// # Panics
///
/// Propagates a panic from `f` once every worker has stopped.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = threads.min(inputs.len());
    if threads <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let results: Mutex<Vec<Option<O>>> = Mutex::new((0..inputs.len()).map(|_| None).collect());
    let work: Mutex<Vec<(usize, I)>> = Mutex::new(inputs.into_iter().enumerate().rev().collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let item = work.lock().expect(UNPOISONED).pop();
                let Some((index, input)) = item else { break };
                let output = f(input);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_preserve_input_order() {
        let outputs = parallel_map((0..100).collect(), 8, |x: u64| x * 2);
        assert_eq!(outputs, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let outputs = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(outputs, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let outputs: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn heavier_work_than_threads() {
        let outputs = parallel_map((0..7).collect(), 16, |x: i32| x * x);
        assert_eq!(outputs, vec![0, 1, 4, 9, 16, 25, 36]);
    }
}
