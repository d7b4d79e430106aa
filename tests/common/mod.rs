//! Helpers shared by the gate tests under `tests/`.

/// 64-bit FNV-1a over bytes: the hash the digest files under
/// `ci/serve/` and `ci/scheduler/` hold, one per pinned trace.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
