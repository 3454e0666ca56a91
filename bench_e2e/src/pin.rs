//! One CPU for the whole benchmark.
//!
//! The reference container is a small virtual machine.  When the load
//! generator and the server sit on different virtual CPUs, every request
//! wakes the other CPU out of a halt, and what that costs is the host's
//! business, not this program's: the same binary then reads 15-25% apart
//! from one run to the next.  On one CPU the two take turns, nothing is ever
//! woken across CPUs, and runs agree to a few percent.  The mask is set
//! before any thread or child exists, so every thread of this process and
//! the `watchmand` it starts inherit it.

// glibc's `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this process to the highest-numbered CPU it is allowed on
/// (the lowest-numbered ones take most interrupts) and returns its number,
/// or `None` when the kernel refuses — the run then goes on unpinned and
/// says so on its `env` line.
pub fn to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread.
    let read =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if read != 0 {
        return None;
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &bits)| bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // Pid 0 is the calling thread: only this test's thread is narrowed.
        let cpu = super::to_one_cpu().expect("the kernel lets a process narrow its own mask");
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
            .expect("status names the allowed CPUs");
        assert_eq!(list.trim(), cpu.to_string());
    }
}
