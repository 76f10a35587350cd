//! Audit-table fixture, clean half: every name the tables mention — all
//! of `COLLECTIVES`, the L6/L8 entry points, the L8 stop function — is
//! defined here, so no table entry is stale.

impl Ctx {
    fn try_barrier(&mut self) {}
    fn try_exchange(&mut self) {}
    fn post_exchange(&mut self) {}
    fn complete_exchange(&mut self) {}
    fn try_gather(&mut self) {}
    fn try_allreduce_sum(&mut self) {}
    fn try_allreduce_sum_with(&mut self) {}
}

impl Pool {
    fn run(&self) {}
}

fn worker_body(ctx: &mut Ctx) {
    ctx.post_exchange();
}

fn hot(pool: &Pool) {
    pool.run();
}
