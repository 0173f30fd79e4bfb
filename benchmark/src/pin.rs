//! CPU pinning. An unpinned run of the sync-metadata workload flips for
//! minutes at a time into a mode four times slower (every
//! `Driver::submit` is a cross-thread hand-off); runs confined to one CPU
//! never did. The process pins itself before it spawns anything, so the
//! driver worker threads inherit the mask.

/// `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed; the
        // kernel only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;
    pub fn get() -> Option<CpuSet> {
        None
    }
    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// Confine the calling thread (and every thread it spawns afterwards) to
/// the first CPU it is allowed on. Returns the mask it had before, or
/// `None` when pinning was impossible.
pub fn pin_to_first_cpu() -> Option<CpuSet> {
    let before = sys::get()?;
    let (word, bits) = before.iter().enumerate().find(|(_, w)| **w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    sys::set(&one).then_some(before)
}

/// Restore a mask saved by [`pin_to_first_cpu`] on the calling thread
/// (the two-client lock-wait replay runs unpinned).
pub fn unpin(mask: &CpuSet) -> bool {
    sys::set(mask)
}
