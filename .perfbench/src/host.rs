//! Allocator set-up for the benchmark process.

/// Keep freed heap memory in the process: no trimming of the heap top and
/// no per-allocation `mmap` below 32 MiB (glibc's largest threshold).
///
/// With glibc's defaults the serving passes return and re-fault their
/// batch buffers: about 1.4 million minor page faults in a 5-second run of
/// DIN slate-64, whose rate then moved twofold within half an hour as the
/// cost of a page fault on a shared VM changed. Allocation calls still
/// cost what they cost; only the page-fault churn is taken out.
pub fn keep_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only changes allocator tuning parameters.
        let ok = unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
        };
        assert!(ok, "mallopt refused the heap settings");
    }
}
