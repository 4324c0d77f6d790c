//! Pins the arena's core claim: once a `Session` is staged, steady-state
//! inference does not allocate activation buffers — every intermediate
//! lands in a preassigned arena slot. A counting global allocator measures
//! the heap bytes each run requests; after warm-up they must be a small
//! constant (dispatch bookkeeping: the timeline's events, the per-layer
//! report and, on a multi-CPU host, each dispatch's scoped worker threads —
//! kernel names are `&'static str`) and must not scale with the activation
//! footprint, which the pre-arena engine re-allocated on every run. Pinned
//! to one CPU, kernel bodies run on the calling thread and spawn nothing.
//!
//! This file holds exactly one test so no sibling test's allocations leak
//! into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use phonebit::core::plan::{CompressionMode, RouteOverrides};
use phonebit::core::{convert, ConvPath, Session, StagedModel, Stream, Window};
use phonebit::gpusim::{Context, DeviceClock, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, fill_weights_clustered, synthetic_image};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::nn::kernels::isa::IsaTier;
use phonebit::tensor::shape::Shape4;
use phonebit::tensor::Tensor;

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
/// Calls to `alloc` and `realloc`, whatever their size.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(l.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(l.size()), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn arch(hw: usize) -> NetworkArch {
    arch_with(hw, 64)
}

/// [`arch`] with `conv2_filters` filters in the thin 3×3 `conv2`.
fn arch_with(hw: usize, conv2_filters: usize) -> NetworkArch {
    NetworkArch::new(format!("steady{hw}"), Shape4::new(1, hw, hw, 3))
        .conv(
            "conv1",
            32,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .maxpool("pool1", 2, 2)
        .conv(
            "conv2",
            conv2_filters,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        )
        .conv(
            "conv3",
            10,
            1,
            1,
            0,
            LayerPrecision::Float,
            Activation::Linear,
        )
        .softmax()
}

/// Heap bytes one steady-state run of `session` requests (median of 3,
/// after 2 warm-up runs that grow every lazily-sized buffer to its
/// high-water mark), with the plan's arena footprint.
fn steady_session_bytes(mut session: Session, hw: usize) -> (usize, usize) {
    let arena = session.plan().arena_bytes();
    let img = synthetic_image(Shape4::new(1, hw, hw, 3), 4);
    for _ in 0..2 {
        session.run_u8(&img).expect("warm-up");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            session.run_u8(&img).expect("steady run");
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    (samples[1], arena)
}

/// A steady-state run on the default plan.
fn steady_run_bytes(hw: usize) -> (usize, usize) {
    let model = convert(&fill_weights(&arch(hw), 9));
    let session = Session::new(model, &Phone::xiaomi_9()).expect("fits");
    steady_session_bytes(session.with_output_capture(false), hw)
}

/// Heap bytes one steady-state window of `batch` images of `alexnet_micro`
/// requests (median of 3, after 2 priming windows), whose binary `fc6` runs
/// the dense kernel: its interleaved bank is staged once with the model,
/// never per dispatch. Returns them with the staged both-banks arena.
fn steady_dense_window_bytes(batch: usize) -> (usize, usize) {
    let model = convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 9));
    let mut session = Session::new_batched(model, &Phone::xiaomi_9(), batch)
        .expect("fits")
        .with_output_capture(false);
    let arena = session.plan().staged_arena_bytes();
    let images: Vec<_> = (0..batch)
        .map(|i| synthetic_image(Shape4::new(1, 32, 32, 3), 4 + i as u64))
        .collect();
    for _ in 0..2 {
        session.run_batch_u8(&images).expect("priming window");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            session.run_batch_u8(&images).expect("steady window");
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    (samples[1], arena)
}

/// Heap allocations (calls, not bytes) one steady-state run on the default
/// plan makes, median of 3 after 2 warm-up runs.
fn steady_run_allocations(hw: usize) -> usize {
    let model = convert(&fill_weights(&arch(hw), 9));
    let mut session = Session::new(model, &Phone::xiaomi_9())
        .expect("fits")
        .with_output_capture(false);
    let img = synthetic_image(Shape4::new(1, hw, hw, 3), 4);
    for _ in 0..2 {
        session.run_u8(&img).expect("warm-up");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            session.run_u8(&img).expect("steady run");
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    samples[1]
}

/// A steady-state run when `CompressionMode::Auto` stages conv2's bank
/// through its dictionary and, its 128 filters repeating, shared where the
/// CPU permutes words (each distinct filter multiplied once; a thin layer
/// of at most 64 filters keeps its taps): the per-pixel `u16` counts live
/// on the row task's stack, so the run allocates per row, never per pixel
/// tile.
fn steady_compressed_run_bytes(hw: usize) -> (usize, usize) {
    let def = fill_weights_clustered(&arch_with(hw, 128), 9, 4);
    let overrides = RouteOverrides {
        compression: CompressionMode::Auto,
        ..Default::default()
    };
    let phone = Phone::xiaomi_9();
    let ctx = Context::new(phone.gpu.clone(), phone.app_budget_bytes());
    let staged = StagedModel::stage_in(convert(&def), ctx, 1, &overrides).expect("fits");
    assert_eq!(
        staged.shared_banks(),
        usize::from(IsaTier::detected() == IsaTier::Avx512Vpopcntdq),
        "test premise: conv2's repeating filters run shared on the AVX-512 tier"
    );
    let session = Session::new_batched_opts(convert(&def), &phone, 1, overrides).expect("fits");
    assert!(
        session
            .plan()
            .compression
            .iter()
            .any(|d| d.compressed && d.path != ConvPath::LoweredGemm),
        "test premise: a direct-route conv must read through a dictionary bank"
    );
    steady_session_bytes(session.with_output_capture(false), hw)
}

/// Heap bytes requested by one steady-state **batched window** (median of
/// 3, after 2 priming windows), with the staged both-banks arena footprint.
fn steady_batched_window_bytes(hw: usize, batch: usize) -> (usize, usize) {
    let def = fill_weights(&arch(hw), 9);
    let model = convert(&def);
    let phone = Phone::xiaomi_9();
    let mut session = Session::new_batched(model, &phone, batch)
        .expect("fits")
        .with_output_capture(false);
    let arena = session.plan().staged_arena_bytes();
    let images: Vec<_> = (0..batch)
        .map(|i| synthetic_image(Shape4::new(1, hw, hw, 3), 4 + i as u64))
        .collect();
    for _ in 0..2 {
        session.run_batch_u8(&images).expect("priming window");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            session.run_batch_u8(&images).expect("steady window");
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    (samples[1], arena)
}

/// Heap bytes requested by one steady-state window on a **shared-model
/// stream** (median of 3, after 2 priming windows): two contending streams
/// are staged over one `StagedModel`, one is warmed, and its steady
/// windows are measured. Returns the measured bytes and the full staged
/// arena across both streams.
fn steady_stream_window_bytes(hw: usize, batch: usize) -> (usize, usize) {
    let def = fill_weights(&arch(hw), 9);
    let model = convert(&def);
    let phone = Phone::xiaomi_9();
    let ctx = Context::new(phone.gpu.clone(), phone.app_budget_bytes());
    let staged = [
        StagedModel::stage_in(model, ctx.clone(), batch, &RouteOverrides::default()).expect("fits"),
    ];
    let clock = DeviceClock::with_streams(phone.gpu.clone(), 2);
    let slice = staged[0].plan().staged_arena_bytes();
    let mut warm = Stream::pooled(&staged, slice, &ctx, Some(clock.clone()))
        .expect("fits")
        .with_output_capture(false);
    let _other = Stream::pooled(&staged, slice, &ctx, Some(clock)).expect("fits");
    let arena = 2 * staged[0].plan().staged_arena_bytes();
    let images: Vec<_> = (0..batch)
        .map(|i| synthetic_image(Shape4::new(1, hw, hw, 3), 4 + i as u64))
        .collect();
    for _ in 0..2 {
        warm.run_window(0, Window::U8(&images))
            .expect("priming window");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            warm.run_window(0, Window::U8(&images))
                .expect("steady window");
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    (samples[1], arena)
}

/// Heap bytes requested by one steady-state **float** window (median of 3,
/// after 2 priming windows) on a stream whose first step sign-packs its
/// input — read in place from the caller's images, so nothing may be staged
/// or collected per window — with the staged both-banks arena footprint.
fn steady_float_window_bytes(hw: usize, batch: usize) -> (usize, usize) {
    let single = Shape4::new(1, hw, hw, 32);
    let arch = NetworkArch::new("steady-float", single)
        .conv(
            "conv1",
            64,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        )
        .maxpool("pool1", 2, 2);
    let model = convert(&fill_weights(&arch, 9));
    let staged = StagedModel::stage(model, &Phone::xiaomi_9(), batch).expect("fits");
    let arena = staged.plan().staged_arena_bytes();
    let mut stream = Stream::new(staged)
        .expect("fits")
        .with_output_capture(false);
    let images: Vec<_> = (0..batch)
        .map(|i| {
            Tensor::from_fn(single, |_, h, w, c| {
                ((h + w * 3 + c * 5 + i) % 7) as f32 - 3.0
            })
        })
        .collect();
    for _ in 0..2 {
        stream
            .run_window(0, Window::F32(&images))
            .expect("priming window");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            stream
                .run_window(0, Window::F32(&images))
                .expect("steady window");
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    (samples[1], arena)
}

/// Heap bytes requested by one steady **stolen** window on a multi-tenant
/// pooled stream (median of 3): two heterogeneous tenants staged into one
/// shared context, one pooled `Stream` with a lane per tenant, both lanes
/// primed, then windows alternate tenants — exactly what a stream does
/// after stealing the other tenant's backlog. Returns the measured bytes
/// and the stream's pooled staged arena.
fn steady_steal_window_bytes(batch: usize) -> (usize, usize) {
    let phone = Phone::xiaomi_9();
    let model_a = convert(&fill_weights(&arch(64), 9));
    let model_b = convert(&fill_weights(&arch(32), 11));
    let ctx = Context::new(phone.gpu.clone(), phone.app_budget_bytes());
    let staged_a = StagedModel::stage_in(model_a, ctx.clone(), batch, &RouteOverrides::default())
        .expect("fits");
    let staged_b = StagedModel::stage_in(model_b, ctx.clone(), batch, &RouteOverrides::default())
        .expect("fits");
    let clock = DeviceClock::with_streams(phone.gpu.clone(), 2);
    let slice = staged_a.plan().staged_arena_bytes();
    let slice = slice.max(staged_b.plan().staged_arena_bytes());
    let mut stream = Stream::pooled(&[staged_a, staged_b], slice, &ctx, Some(clock))
        .expect("fits")
        .with_output_capture(false);
    let arena = stream.slice_bytes();
    let imgs_a: Vec<_> = (0..batch)
        .map(|i| synthetic_image(Shape4::new(1, 64, 64, 3), 4 + i as u64))
        .collect();
    let imgs_b: Vec<_> = (0..batch)
        .map(|i| synthetic_image(Shape4::new(1, 32, 32, 3), 40 + i as u64))
        .collect();
    // Prime both tenant lanes (two windows each grow every lazily-sized
    // buffer to its high-water mark).
    for _ in 0..2 {
        let _ = stream.run_window(0, Window::U8(&imgs_a)).expect("priming");
        let _ = stream.run_window(1, Window::U8(&imgs_b)).expect("priming");
    }
    let mut samples: Vec<usize> = (0..3)
        .map(|_| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            let _ = stream.run_window(0, Window::U8(&imgs_a)).expect("steady");
            let _ = stream.run_window(1, Window::U8(&imgs_b)).expect("stolen");
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    samples.sort_unstable();
    (samples[1], arena)
}

#[test]
fn steady_state_runs_do_not_allocate_activations() {
    let (small_bytes, small_arena) = steady_run_bytes(32);
    let (large_bytes, large_arena) = steady_run_bytes(96);

    // The large model moves ~9x the activation bytes; the pre-arena engine
    // allocated at least the arena footprint afresh on every run. Steady
    // state must stay far below that.
    assert!(
        large_arena > small_arena * 6,
        "test premise: footprints must differ ({small_arena} vs {large_arena})"
    );
    assert!(
        large_bytes < large_arena / 10,
        "steady-state run allocated {large_bytes} B against a {large_arena} B arena — \
         activations are leaking off the arena"
    );
    // Dispatch bookkeeping may scale with row counts (thread-pool work
    // lists), but a 9x footprint may not cost anywhere near 9x heap.
    assert!(
        large_bytes < small_bytes.max(1) * 6 + 4096,
        "per-run heap scaled with activation size: {small_bytes} B -> {large_bytes} B"
    );

    // A binary dense layer multiplies the bank staged for it: interleaving
    // its weights per dispatch would allocate the bank (16 KB for fc6) on
    // every window.
    let (dense_bytes, dense_arena) = steady_dense_window_bytes(4);
    assert!(
        dense_bytes < dense_arena / 10,
        "steady window with a binary dense layer allocated {dense_bytes} B against a \
         {dense_arena} B staged arena — the dense bank is interleaved per dispatch"
    );

    // Kernel scratch (the first layer's plane stream, the tiled kernels'
    // window gather) belongs to the worker, not to the row task: three
    // times the output rows make the same number of allocations.
    let (small_allocations, large_allocations) =
        (steady_run_allocations(32), steady_run_allocations(96));
    assert!(
        large_allocations <= small_allocations + 4,
        "steady-run allocation count grew with output rows: \
         {small_allocations} at 32x32 -> {large_allocations} at 96x96"
    );

    // Reading through a dictionary-compressed bank must not cost the
    // contract: the kernel's lookup table (taps x unique rows, a KB or so)
    // is row-task scratch like the window gather, so a run with 9x the
    // pixels allocates 3x the rows' worth, not one table per pixel tile.
    let (small_dict_bytes, _) = steady_compressed_run_bytes(32);
    let (large_dict_bytes, dict_arena) = steady_compressed_run_bytes(96);
    assert!(
        large_dict_bytes < dict_arena / 4,
        "steady compressed run allocated {large_dict_bytes} B against a {dict_arena} B arena — \
         the dictionary read-through is allocating on the activation path"
    );
    assert!(
        large_dict_bytes < small_dict_bytes.max(1) * 6 + 4096,
        "compressed per-run heap scaled with activation size: \
         {small_dict_bytes} B -> {large_dict_bytes} B"
    );

    // The batched path holds the same contract: once both arena banks are
    // staged and the stream is primed, a whole window (batch x the
    // activation traffic) allocates only dispatch bookkeeping.
    let (window_bytes, batched_arena) = steady_batched_window_bytes(64, 4);
    assert!(
        batched_arena > large_arena,
        "test premise: the 4-image double-banked arena out-sizes the single large one"
    );
    assert!(
        window_bytes < batched_arena / 10,
        "steady batched window allocated {window_bytes} B against a {batched_arena} B staged \
         arena — batched activations are leaking off the arena"
    );

    // The Session split must not cost the contract either: a Stream staged
    // over a shared StagedModel (with a second contending stream and a
    // device clock attached) dispatches steady windows with the same
    // dispatch-bookkeeping-only heap profile.
    let (stream_bytes, sharded_arena) = steady_stream_window_bytes(64, 4);
    assert!(
        sharded_arena > batched_arena,
        "test premise: two streams stage more arena than one"
    );
    assert!(
        stream_bytes < sharded_arena / 10,
        "steady per-stream window allocated {stream_bytes} B against a {sharded_arena} B \
         staged arena — sharded dispatch is allocating on the activation path"
    );
    assert!(
        stream_bytes < window_bytes.max(1) * 3 + 4096,
        "per-stream dispatch heap blew up vs the single-session window: \
         {window_bytes} B -> {stream_bytes} B"
    );

    // A float window is packed where the caller holds it: the same
    // dispatch-bookkeeping-only profile, no staging buffer and no lane list
    // built per window.
    let (float_bytes, float_arena) = steady_float_window_bytes(64, 4);
    assert!(
        float_bytes < float_arena / 10,
        "steady float window allocated {float_bytes} B against a {float_arena} B staged arena"
    );
    assert!(
        float_bytes < window_bytes.max(1) * 3 + 4096,
        "a float window's dispatch heap blew up vs the u8 window: \
         {window_bytes} B -> {float_bytes} B"
    );

    // Work-stealing steady state: a pooled multi-tenant stream alternating
    // two tenants' windows (one window of each per sample — a steal on
    // every switch) still allocates only dispatch bookkeeping. Stealing
    // must not allocate: every tenant lane was prepared at staging.
    let (steal_bytes, pooled_arena) = steady_steal_window_bytes(4);
    assert!(
        pooled_arena > 0,
        "test premise: the pooled slice stages a real arena"
    );
    assert!(
        steal_bytes < pooled_arena / 10,
        "steady stolen windows allocated {steal_bytes} B against a {pooled_arena} B pooled \
         slice — tenant switching is allocating on the activation path"
    );
    assert!(
        steal_bytes < 2 * window_bytes.max(1) * 3 + 8192,
        "two alternating tenant windows should cost about two windows' dispatch bookkeeping: \
         {window_bytes} B/window -> {steal_bytes} B"
    );
}
