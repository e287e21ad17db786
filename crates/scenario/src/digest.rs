//! The stable run digest: FNV-1a over a rendered event log (the workspace's
//! one implementation, [`exegpt_dist::fnv1a`]), so two machines can compare
//! runs by one hex token.

pub use exegpt_dist::fnv1a;

/// Renders a digest the way every log and golden file spells it.
pub fn format_digest(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_as_sixteen_hex_digits() {
        assert_eq!(format_digest(0x2a), "000000000000002a");
        assert_eq!(format_digest(fnv1a("")).len(), 16);
    }
}
