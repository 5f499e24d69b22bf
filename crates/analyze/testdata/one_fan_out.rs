//! Seeded violation: a kernel starting its own threads instead of
//! handing its parts to `Executor::for_each_part`. Must be rejected by
//! `one-fan-out`.

pub fn scale_halves(values: &mut [f32], by: f32) {
    let (a, b) = values.split_at_mut(values.len() / 2);
    std::thread::scope(|s| {
        s.spawn(|| a.iter_mut().for_each(|v| *v *= by));
        b.iter_mut().for_each(|v| *v *= by);
    });
}
