//! L10 fixture, library half: `reached` is reached from the bin through
//! two private helpers, `kept` only through an api-roots line (and
//! `kept_callee` through it), `listed` only by tests, and `orphan` by
//! nothing at all.

pub fn entry() {
    step();
}

fn step() {
    reached();
}

pub fn reached() {}

pub fn kept() {
    kept_callee();
}

pub fn kept_callee() {}

pub fn listed() {}

pub fn orphan() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_from_tests_do_not_count() {
        super::listed();
        super::orphan();
    }
}
