//! L10 fixture, program half: a bin `main` that reaches the library
//! through a private helper of its own.

fn main() {
    run();
}

fn run() {
    entry();
}
