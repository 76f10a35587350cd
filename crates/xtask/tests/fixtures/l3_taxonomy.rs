//! L3 fixture: instrument labels must come from the registered taxonomy.

pub fn registered_label() {
    dismastd_obs::span("phase/mttkrp", || ());
}

pub fn misspelled_span() {
    dismastd_obs::span("phase/mtkrp", || ());
}

pub fn misspelled_counter() {
    dismastd_obs::counter_add("plan/rebuilds", 1);
}
