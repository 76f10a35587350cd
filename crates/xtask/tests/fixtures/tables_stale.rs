//! Audit-table fixture, stale half: the same program after four renames that
//! left the tables behind — `post_exchange`, `worker_body`, `hot` and
//! `Pool::run` no longer exist, one stale entry per table.

impl Ctx {
    fn try_barrier(&mut self) {}
    fn try_exchange(&mut self) {}
    fn post_exchange_v2(&mut self) {}
    fn complete_exchange(&mut self) {}
    fn try_gather(&mut self) {}
    fn try_allreduce_sum(&mut self) {}
    fn try_allreduce_sum_with(&mut self) {}
}

impl Pool {
    fn run_chunks(&self) {}
}

fn rank_body(ctx: &mut Ctx) {
    ctx.post_exchange_v2();
}

fn hot_kernel(pool: &Pool) {
    pool.run_chunks();
}
