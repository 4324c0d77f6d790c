//! The window scheduler as it was before its cursors: every dispatch
//! rescans each tenant's whole window list for the eligible window, the
//! idle stream's next ready time and the shed pass, O(W²) per call. Kept
//! verbatim as the reference `serve::schedule_open_loop` must equal
//! exactly, schedule for schedule.

use phonebit::core::serve::{
    OpenLoopAttempt, OpenLoopLoad, OpenLoopSchedule, RetryPolicy, ShedReason, WindowFate,
};
use phonebit::gpusim::FaultPlan;

fn fault_key(tenant: usize, index: usize, attempt: usize) -> u64 {
    (tenant as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add((attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// The quadratic scheduler, body for body.
pub fn reference_schedule_open_loop(
    tenants: &[OpenLoopLoad],
    streams: usize,
    fault: Option<&FaultPlan>,
    policy: &RetryPolicy,
) -> OpenLoopSchedule {
    assert!(streams >= 1, "a schedule needs >= 1 stream");
    for t in tenants {
        assert!(t.steady_ms > 0.0, "window service must be positive");
    }
    let slowdown_at = |ms: f64| fault.map_or(1.0, |f| f.slowdown_at(ms));
    /// One unresolved window: when it may next run and which attempt is
    /// next.
    #[derive(Clone, Copy)]
    struct Pending {
        ready_ms: f64,
        attempt: usize,
    }
    let mut pending: Vec<Vec<Option<Pending>>> = tenants
        .iter()
        .map(|t| {
            t.windows
                .iter()
                .map(|w| {
                    Some(Pending {
                        ready_ms: w.ready_ms,
                        attempt: 1,
                    })
                })
                .collect()
        })
        .collect();
    let mut fates: Vec<Vec<Option<WindowFate>>> = tenants
        .iter()
        .map(|t| vec![None; t.windows.len()])
        .collect();
    let mut unresolved: usize = tenants.iter().map(|t| t.windows.len()).sum();
    // Tenants that can shed for lateness at all. A closed-loop or no-SLO
    // tenant's deadlines are all infinite, and it pays nothing for the
    // shed pass below.
    let sheddable: Vec<bool> = tenants
        .iter()
        .map(|t| t.windows.iter().any(|w| w.deadline_ms.is_finite()))
        .collect();
    let mut free = vec![0.0f64; streams];
    let mut primed = vec![vec![false; tenants.len()]; streams];
    let mut attempts = Vec::new();

    while unresolved > 0 {
        let stream = (0..streams)
            .min_by(|&a, &b| {
                free[a]
                    .partial_cmp(&free[b])
                    .expect("modeled times are finite")
                    .then(a.cmp(&b))
            })
            .expect("streams >= 1");
        let now = free[stream];

        // Shed pass: drop hopeless windows (finite deadlines only). The
        // check is optimistic — primed service at the current derate from
        // the earliest possible start — so only truly unservable windows
        // are shed and shedding stays bounded.
        for (t, load) in tenants.iter().enumerate() {
            if !sheddable[t] {
                continue;
            }
            for (i, slot) in pending[t].iter_mut().enumerate() {
                let Some(p) = slot else { continue };
                let deadline = load.windows[i].deadline_ms;
                if !deadline.is_finite() {
                    continue;
                }
                let start = now.max(p.ready_ms);
                if start + load.steady_ms * slowdown_at(start) > deadline {
                    fates[t][i] = Some(WindowFate::Shed {
                        at_ms: start,
                        attempts: p.attempt - 1,
                        reason: ShedReason::DeadlinePast,
                    });
                    *slot = None;
                    unresolved -= 1;
                }
            }
        }
        if unresolved == 0 {
            break;
        }

        // Eligible = per tenant, the earliest pending window that is
        // ready at `now`. Pull the least-slack one.
        let mut best: Option<(usize, usize, f64, f64, f64)> = None; // (t, i, slack, deadline, dur)
        for (t, load) in tenants.iter().enumerate() {
            let Some(i) = pending[t]
                .iter()
                .position(|s| s.is_some_and(|p| p.ready_ms <= now))
            else {
                continue;
            };
            let base = if primed[stream][t] {
                load.steady_ms
            } else {
                load.cold_ms
            };
            let dur = base * slowdown_at(now);
            let deadline = load.windows[i].pace_ms;
            let slack = deadline - (now + dur);
            let wins = match best {
                None => true,
                Some((_, _, bs, bd, _)) => {
                    slack < bs - 1e-12 || ((slack - bs).abs() <= 1e-12 && deadline < bd - 1e-12)
                }
            };
            if wins {
                best = Some((t, i, slack, deadline, dur));
            }
        }

        let Some((t, i, _, _, dur)) = best else {
            // Nothing ready: idle this stream forward to the next ready
            // time (strictly later than `now`, so the loop advances).
            let next_ready = pending
                .iter()
                .flatten()
                .flatten()
                .map(|p| p.ready_ms)
                .fold(f64::INFINITY, f64::min);
            assert!(next_ready.is_finite(), "window ready times must be finite");
            debug_assert!(next_ready > now, "a ready window would have matched");
            free[stream] = next_ready;
            continue;
        };

        let p = pending[t][i].expect("best came from the pending set");
        let end = now + dur;
        let faulted = fault.is_some_and(|f| f.attempt_faults(fault_key(t, i, p.attempt), now));
        attempts.push(OpenLoopAttempt {
            tenant: t,
            index: i,
            attempt: p.attempt,
            stream,
            start_ms: now,
            end_ms: end,
            faulted,
            slowdown: slowdown_at(now),
        });
        free[stream] = end;
        primed[stream][t] = true;
        if !faulted {
            fates[t][i] = Some(WindowFate::Served {
                stream,
                start_ms: now,
                end_ms: end,
                attempts: p.attempt,
            });
            pending[t][i] = None;
            unresolved -= 1;
        } else if p.attempt > policy.max_retries {
            fates[t][i] = Some(WindowFate::Shed {
                at_ms: end,
                attempts: p.attempt,
                reason: ShedReason::RetriesExhausted,
            });
            pending[t][i] = None;
            unresolved -= 1;
        } else {
            // Exponential backoff: after the `k`-th consecutive fault the
            // window re-enters the ready set only after
            // `steady_ms × BACKOFF_SCALE × 2^(k−1)`, re-enqueued through
            // the same work-stealing pull as fresh arrivals.
            const BACKOFF_SCALE: f64 = 0.5;
            let backoff = tenants[t].steady_ms * BACKOFF_SCALE * (1 << (p.attempt - 1)) as f64;
            pending[t][i] = Some(Pending {
                ready_ms: end + backoff,
                attempt: p.attempt + 1,
            });
        }
    }

    let wall_ms = attempts
        .iter()
        .map(|a: &OpenLoopAttempt| a.end_ms)
        .fold(0.0, f64::max);
    OpenLoopSchedule {
        attempts,
        fates: fates
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|f| f.expect("every window resolved"))
                    .collect()
            })
            .collect(),
        wall_ms,
    }
}
