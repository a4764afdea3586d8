//! Synchronization primitive costs (CSE445 unit 2's "resource locking
//! versus unbreakable operations"): semaphore, events, spin lock,
//! OS mutex, and atomics, uncontended and contended, plus the bounded
//! buffer's producer/consumer throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use soc_bench::Record;
use soc_parallel::sync::{AutoResetEvent, BoundedBuffer, Semaphore, SenseBarrier, SpinLock};

fn main() {
    let mut rec = Record::new("sync");

    // Uncontended primitive costs.
    let sem = Semaphore::new(1);
    rec.time("semaphore/acquire_release", || {
        sem.acquire();
        sem.release();
    });
    let spin = SpinLock::new(0u64);
    rec.time("spinlock/lock_unlock", || *spin.lock() += 1);
    let mutex = std::sync::Mutex::new(0u64);
    rec.time("os_mutex/lock_unlock", || *mutex.lock().unwrap() += 1);
    let atomic = AtomicU64::new(0);
    rec.time("atomic/fetch_add", || atomic.fetch_add(1, Ordering::Relaxed));
    let ev = AutoResetEvent::new(false);
    rec.time("auto_reset_event/set_wait", || {
        ev.set();
        ev.wait();
    });

    // Contended counter: lock-based vs lock-free ("unbreakable").
    for threads in [2usize, 4] {
        rec.time(&format!("contended_counter/spinlock_{threads}t"), || {
            let lock = SpinLock::new(0u64);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for _ in 0..2_000 {
                            *lock.lock() += 1;
                        }
                    });
                }
            })
        });
        rec.time(&format!("contended_counter/atomic_{threads}t"), || {
            let ctr = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for _ in 0..2_000 {
                            ctr.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            })
        });
    }

    // Producer/consumer transfer through the bounded buffer: the
    // headline row, since it pays a hand-off per item. Its ceiling
    // catches a lost wake-up stalling the transfer.
    rec.time("bounded_buffer/transfer_4k", || {
        let buf = Arc::new(BoundedBuffer::new(64));
        let tx = buf.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..4_000u32 {
                tx.put(i).unwrap();
            }
            tx.close();
        });
        let mut sum = 0u64;
        while let Some(v) = buf.take() {
            sum += v as u64;
        }
        producer.join().unwrap();
        sum
    })
    .max(25_000_000.0);

    // Barrier round cost.
    rec.time("barrier/round_2t", || {
        let bar = Arc::new(SenseBarrier::new(2));
        let b2 = bar.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                b2.wait();
            }
        });
        for _ in 0..100 {
            bar.wait();
        }
        t.join().unwrap();
    });

    rec.finish();
}
