//! L9 fixture (guilty): unchecked `as u32` narrowings.

pub fn row_id(row: usize) -> u32 {
    row as u32
}

pub fn column(idx: &[usize], k: usize) -> u32 {
    (idx[k] + 1) as u32
}

pub fn literals_and_other_widths_are_fine(x: usize) -> (u32, u64, u32) {
    (7 as u32, x as u64, u32::try_from(x).unwrap_or(u32::MAX))
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_narrow() {
        let n = 5usize;
        assert_eq!(n as u32, 5);
    }
}
