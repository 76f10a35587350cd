//! L6 fixture: collectives reached under rank-conditioned branches.
//! `worker_body` roots the audit; `decide` is guilty transitively; the
//! final gather carries a `lint:allow`, which L6 does not honour.

fn worker_body(ctx: &mut Ctx, me: usize) {
    ctx.try_allreduce_sum(buf);
    if me == 0 {
        ctx.try_barrier();
        decide(ctx);
    }
    if me == 0 {
        // lint:allow(collective_order): rank 0 decides; every peer mirrors with a recv
        ctx.try_gather(0, payload);
    }
}

fn decide(ctx: &mut Ctx) {
    ctx.try_gather(0, None);
}
