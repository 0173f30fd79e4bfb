//! The allocation counts of a window are the program's, not the
//! harness's: a window whose body does nothing reads 0 allocations, even
//! though inputs were generated (and the harness itself allocated)
//! around it. Alone in its file, so no other test's heap traffic runs in
//! this process.

use cffs_benchmark::fsapi::Counts;
use cffs_benchmark::gen::{names, Rng, Tape};
use cffs_benchmark::harness::{run_window, Bench, Calib, Rec};
use cffs_benchmark::trace::Tracer;

struct Idle {
    generated: Vec<String>,
}

impl Bench for Idle {
    fn ops_per_pass(&self) -> usize {
        1
    }
    fn before_round(&mut self) {
        // Generator work between passes: outside the window.
        let mut rng = Rng::new(self.generated.len() as u64);
        self.generated = names(&mut rng, 'n', 100);
        std::hint::black_box(Tape::new(&mut rng));
    }
    fn round(&mut self, _tr: &mut Tracer, rec: &mut Rec) {
        rec.op_done(0);
    }
    fn now_ns(&self) -> u64 {
        0
    }
    fn counts(&self) -> Counts {
        Counts::default()
    }
    fn space(&self) -> (u64, u64) {
        (0, 1)
    }
    fn finish(&mut self, _rec: &mut Rec) {}
}

#[test]
fn a_window_with_a_no_op_body_reads_zero_allocations() {
    let mut bench = Idle {
        generated: Vec::new(),
    };
    let mut rec = Rec::new(1, 3);
    let w = run_window(
        &mut bench,
        &mut Calib::new(),
        &mut Tracer::off(),
        &mut rec,
        0.0,
        3,
        false,
    );
    assert_eq!(w.passes.len(), 3);
    assert_eq!(w.kept_heap().allocs, 0);
    assert_eq!(w.kept_heap().bytes, 0);
    assert!(!bench.generated.is_empty());
}
