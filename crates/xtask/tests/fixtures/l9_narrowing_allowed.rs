//! L9 fixture (allowed): every narrowing names the check that guards it.

pub fn row_ids(rows: usize) -> Option<Vec<u32>> {
    u32::try_from(rows).ok()?;
    // lint:allow(narrowing_cast): `rows` fits in u32 (checked above), so every `row < rows` does
    Some((0..rows).map(|row| row as u32).collect())
}

pub fn stored(i: usize) -> u32 {
    i as u32 // lint:allow(narrowing_cast): the builder's `push` refused every coordinate >= 2^32
}

pub fn unguarded_control(i: usize) -> u32 {
    i as u32
}
