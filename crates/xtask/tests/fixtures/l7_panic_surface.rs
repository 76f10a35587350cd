//! L7 fixture: one public API that reaches a panic site through a private
//! helper, and one panic-free API.

pub fn risky(x: Option<u32>) -> u32 {
    helper(x)
}

pub fn safe(x: u32) -> u32 {
    x + 1
}

fn helper(x: Option<u32>) -> u32 {
    x.expect("set")
}
