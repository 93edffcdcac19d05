//! Minimal stand-in for the `crossbeam` primitive the workspace uses:
//! [`channel`], the MPMC channel driving the MapReduce engine, over
//! `Mutex<VecDeque>` + `Condvar` — correct multi-consumer semantics and
//! disconnect detection, not crossbeam's lock-free throughput.

/// Multi-producer multi-consumer channels (mirror of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        ready: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// The sending half; cloning adds a producer.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloning adds a consumer (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like real crossbeam: Debug without a `T: Debug` bound, so channels
    // of non-Debug payloads still allow `.expect(...)`.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait lapsed with the channel still empty (senders alive).
        Timeout,
        /// The channel is empty and every sender has dropped.
        Disconnected,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a value; fails only when every receiver has dropped.
        ///
        /// # Errors
        /// [`SendError`] carrying the value back when disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().expect("channel poisoned");
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().expect("channel poisoned").senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().expect("channel poisoned");
            inner.senders -= 1;
            let disconnected = inner.senders == 0;
            drop(inner);
            if disconnected {
                // Wake all blocked receivers so they observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender has dropped.
        ///
        /// # Errors
        /// [`RecvError`] when the channel is empty and disconnected.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().expect("channel poisoned");
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.ready.wait(inner).expect("channel poisoned");
            }
        }

        /// Blocks until a value arrives, every sender drops, or `timeout`
        /// lapses — the wait the MapReduce retry driver uses to multiplex
        /// task results with backoff/straggler deadlines.
        ///
        /// # Errors
        /// [`RecvTimeoutError::Timeout`] when the wait lapsed first,
        /// [`RecvTimeoutError::Disconnected`] when the channel is empty
        /// and every sender has dropped.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().expect("channel poisoned");
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(inner, left)
                    .expect("channel poisoned");
                inner = guard;
            }
        }

        /// Non-blocking receive: `None` when currently empty (regardless of
        /// sender liveness).
        pub fn try_recv(&self) -> Option<T> {
            self.shared
                .inner
                .lock()
                .expect("channel poisoned")
                .queue
                .pop_front()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .inner
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .inner
                .lock()
                .expect("channel poisoned")
                .receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_within_a_single_consumer() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn recv_errors_after_last_sender_drops() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_errors_after_last_receiver_drops() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn multiple_consumers_partition_the_stream() {
            let (tx, rx) = unbounded();
            let n = 1000;
            for i in 0..n {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut seen: Vec<i32> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        scope.spawn(move || {
                            let mut got = Vec::new();
                            while let Ok(v) = rx.recv() {
                                got.push(v);
                            }
                            got
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("consumer panicked"))
                    .collect()
            });
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(3).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(5)), Ok(3));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn blocked_receiver_wakes_on_send() {
            let (tx, rx) = unbounded();
            std::thread::scope(|scope| {
                let h = scope.spawn(move || rx.recv().unwrap());
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx.send(99u8).unwrap();
                assert_eq!(h.join().expect("receiver panicked"), 99);
            });
        }
    }
}
