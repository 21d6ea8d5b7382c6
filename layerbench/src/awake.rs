//! Keep the machine's processors out of their idle state while a run
//! measures.
//!
//! On a virtual machine, waking an idle virtual processor costs hundreds
//! of microseconds, and how many depends on the load the host's other
//! tenants put on it. Any measured path that hands work between threads
//! (a server worker woken by a submission, a client woken by a reply, a
//! shard woken by a socket) would pay that cost, and its latency would
//! swing several-fold between runs for reasons outside the program.
//!
//! [`KeepAwake`] runs one polling thread per processor at the lowest
//! scheduling class (`SCHED_IDLE`): they run only when no other thread
//! can, and give way the moment one becomes runnable, so the processors
//! never halt.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: plain libc call on the calling thread with a
                    // valid parameter block.
                    let idle =
                        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) }
                            == 0;
                    // Without the idle class a poller would compete with
                    // the measured threads; then do nothing instead.
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
