//! The in-flight batch table: O(1) windows per daemon, plain tokens equal
//! to `(pd << 12) | ctr` while no counter comes round onto a live batch,
//! extended tokens beyond that, and a snapshot format that stays the
//! plain-counter one until a daemon first extends.
//!
//! `saturated_main_run_keeps_tokens_unique` is a release-only model run
//! (about 6 M events); `scripts/verify.sh` runs it with `--ignored`.

use paradyn_core::model::types::{
    token_pd, Batch, Token, TokenTable, MAX_LIVE_PER_PD, TOKEN_CTR_BITS, TOKEN_EXT,
};
use paradyn_core::{build, Arch, Forwarding, RoccModel, SimConfig};
use paradyn_des::{fnv1a, CalendarKind, Dec, Enc, Persist, Sim, SimTime};
use paradyn_isim::chaos::conservation_violation;

fn batch(count: u32) -> Batch {
    Batch {
        count,
        sum_gen_ns: count as u64 * 3,
        ready_ns: count as u64 * 7,
        drain_apps: vec![count],
        attempts: 0,
    }
}

fn plain(pd: u32, ctr: u32) -> Token {
    (pd << TOKEN_CTR_BITS) | ctr
}

fn save(t: &TokenTable) -> Vec<u8> {
    let mut w = Enc::new();
    t.save(&mut w);
    w.into_bytes()
}

fn load(bytes: &[u8]) -> Result<TokenTable, String> {
    let mut r = Dec::new(bytes);
    TokenTable::load(&mut r).map_err(|e| e.to_string())
}

/// Tiny deterministic generator for removal orders.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }
}

#[test]
fn ten_thousand_live_batches_resolve_to_their_own() {
    let mut tab = TokenTable::with_pds(4);
    let mut live: Vec<(Token, u32)> = Vec::new();
    for i in 0..10_000u32 {
        live.push((tab.insert(2, batch(i)), i));
    }
    let mut toks: Vec<Token> = live.iter().map(|&(t, _)| t).collect();
    toks.sort_unstable();
    toks.dedup();
    assert_eq!(toks.len(), 10_000, "live tokens must be unique");
    assert!(live.iter().all(|&(t, _)| token_pd(t) == 2));
    let mut rng = Lcg(7);
    for round in 0..6_000 {
        let k = rng.below(live.len());
        let (t, want) = live.swap_remove(k);
        assert_eq!(tab.get(t).map(|b| b.count), Some(want));
        tab.get_mut(t).unwrap().attempts = want;
        assert_eq!(
            tab.remove(t).map(|b| (b.count, b.attempts)),
            Some((want, want))
        );
        // Keep allocating while removing out of order.
        if round % 3 == 0 {
            let c = 10_000 + round;
            live.push((tab.insert(2, batch(c)), c));
        }
        assert_eq!(tab.len(), live.len());
    }
    for &(t, want) in &live {
        assert_eq!(tab.get(t).map(|b| b.count), Some(want));
    }
    let mut toks: Vec<Token> = live.iter().map(|&(t, _)| t).collect();
    toks.sort_unstable();
    toks.dedup();
    assert_eq!(toks.len(), live.len(), "live tokens must stay unique");
    // Iteration is allocation order.
    let mut by_alloc: Vec<u32> = live.iter().map(|&(_, c)| c).collect();
    by_alloc.sort_unstable();
    assert_eq!(tab.values().map(|b| b.count).collect::<Vec<_>>(), by_alloc);
}

#[test]
fn tokens_are_the_plain_counter_until_a_counter_would_come_round() {
    // A sliding window of 100 live batches over 10,000 allocations: every
    // token is `(pd << 12) | (allocation index mod 4096)`.
    let mut tab = TokenTable::with_pds(5);
    let mut window = std::collections::VecDeque::new();
    for i in 0..10_000u32 {
        let t = tab.insert(3, batch(i));
        assert_eq!(t, plain(3, i & 0xFFF));
        window.push_back(t);
        if window.len() > 100 {
            tab.remove(window.pop_front().unwrap()).unwrap();
        }
    }
    // 4,096 live on one daemon: the next allocation's counter would come
    // round onto batch 0, so it is extended from the base 4096 (epoch 0).
    let mut tab = TokenTable::with_pds(2);
    for i in 0..4096u32 {
        assert_eq!(tab.insert(1, batch(i)), plain(1, i));
    }
    let pinned = [
        (4096u32, TOKEN_EXT | plain(1, 0)),
        (4097, TOKEN_EXT | plain(1, 1)),
        (8191, TOKEN_EXT | plain(1, 0xFFF)),
        (8192, TOKEN_EXT | (1 << 27) | plain(1, 0)),
        (8193, TOKEN_EXT | (1 << 27) | plain(1, 1)),
    ];
    let mut toks = vec![];
    for i in 4096..8194u32 {
        let t = tab.insert(1, batch(i));
        if let Some(&(_, want)) = pinned.iter().find(|&&(k, _)| k == i) {
            assert_eq!(t, want, "allocation {i}");
        }
        toks.push((t, i));
    }
    for &(t, i) in &toks {
        assert_eq!(tab.get(t).unwrap().count, i);
    }
    assert_eq!(tab.get(plain(1, 0)).unwrap().count, 0);
    // Once the window shrinks back below 4,096, tokens are plain again.
    for i in 0..4096u32 {
        tab.remove(plain(1, i)).unwrap();
    }
    for &(t, _) in &toks[..toks.len() - 100] {
        tab.remove(t).unwrap();
    }
    assert_eq!(tab.len(), 100);
    assert_eq!(tab.insert(1, batch(1)), plain(1, 8194 & 0xFFF));
}

#[test]
fn past_the_bound_allocation_waits_for_the_oldest_batch() {
    let mut tab = TokenTable::with_pds(1);
    let mut toks = Vec::with_capacity(MAX_LIVE_PER_PD as usize);
    while tab.can_alloc(0) {
        toks.push(tab.insert(0, batch(toks.len() as u32)));
    }
    assert_eq!(toks.len() as u64, MAX_LIVE_PER_PD);
    let mut sorted = toks.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), toks.len(), "unique at the bound");
    for (i, &t) in toks.iter().enumerate() {
        assert_eq!(tab.get(t).unwrap().count, i as u32);
    }
    // Freeing a younger batch does not move the window; the oldest does.
    tab.remove(toks[5]).unwrap();
    assert!(!tab.can_alloc(0));
    tab.remove(toks[0]).unwrap();
    assert!(tab.can_alloc(0));
    let t = tab.insert(0, batch(99));
    assert_eq!(tab.get(t).unwrap().count, 99);
    assert_eq!(tab.get(toks[1]).unwrap().count, 1);
    assert!(!tab.can_alloc(0));
}

#[test]
fn snapshot_keeps_the_plain_counter_format_until_a_daemon_extends() {
    // Golden bytes: the plain-counter format, per daemon the live
    // `(counter, batch)` pairs in allocation order, then every daemon's
    // next counter.
    let mut tab = TokenTable::with_pds(2);
    let a = tab.insert(0, batch(1));
    let b = tab.insert(0, batch(2));
    let _c = tab.insert(0, batch(3));
    let _d = tab.insert(1, batch(4));
    tab.remove(b).unwrap();
    tab.remove(a).unwrap();
    let _e = tab.insert(0, batch(5));
    let mut want = Enc::new();
    want.put_u32(2);
    want.put_u32(2);
    want.put_u32(2);
    batch(3).save(&mut want);
    want.put_u32(3);
    batch(5).save(&mut want);
    want.put_u32(1);
    want.put_u32(0);
    batch(4).save(&mut want);
    want.put_u32(4);
    want.put_u32(1);
    assert_eq!(save(&tab), want.into_bytes());

    // A counter past a wrap, with the window straddling it.
    let mut tab = TokenTable::with_pds(1);
    let mut toks: Vec<Token> = (0..4000).map(|i| tab.insert(0, batch(i))).collect();
    for t in toks.drain(..3990) {
        tab.remove(t).unwrap();
    }
    toks.extend((0..100).map(|i| tab.insert(0, batch(i))));
    assert!(toks.iter().all(|&t| t < 1 << TOKEN_CTR_BITS));
    let bytes = save(&tab);
    let mut one = Enc::new();
    batch(1).save(&mut one);
    assert_eq!(
        bytes.len(),
        4 * 3 + 110 * (4 + one.len()),
        "plain-counter format"
    );
    let mut back = load(&bytes).unwrap();
    assert_eq!(save(&back), bytes);
    assert_eq!(back.insert(0, batch(0)), tab.insert(0, batch(0)));
}

#[test]
fn snapshot_round_trips_holes_and_extended_tokens() {
    let mut tab = TokenTable::with_pds(3);
    let mut live: Vec<Token> = (0..5000).map(|i| tab.insert(1, batch(i))).collect();
    let _ = tab.insert(2, batch(77));
    let mut rng = Lcg(11);
    for _ in 0..1200 {
        let k = rng.below(live.len());
        tab.remove(live.swap_remove(k)).unwrap();
    }
    assert!(live.iter().any(|&t| t & TOKEN_EXT != 0));
    let bytes = save(&tab);
    let mut back = load(&bytes).unwrap();
    assert_eq!(save(&back), bytes, "restore is lossless");
    assert_eq!(back.len(), tab.len());
    for &t in &live {
        assert_eq!(back.get(t).map(|b| b.count), tab.get(t).map(|b| b.count));
    }
    let order = |t: &TokenTable| t.values().map(|b| b.count).collect::<Vec<_>>();
    assert_eq!(order(&back), order(&tab));
    // Both continue identically: same next tokens, same consumption.
    for i in 0..3000 {
        assert_eq!(back.insert(1, batch(i)), tab.insert(1, batch(i)));
        let k = rng.below(live.len());
        let t = live.swap_remove(k);
        assert_eq!(
            back.remove(t).map(|b| b.count),
            tab.remove(t).map(|b| b.count)
        );
    }
    assert_eq!(save(&back), save(&tab));
}

#[test]
fn malformed_snapshots_are_rejected() {
    let frame = |entries: &[u32], next: u32| {
        let mut w = Enc::new();
        w.put_u32(1);
        w.put_u32(entries.len() as u32);
        for &c in entries {
            w.put_u32(c);
            batch(1).save(&mut w);
        }
        w.put_u32(next);
        w.into_bytes()
    };
    let ext = 1 << 16;
    load(&frame(&[3, 4], 5)).unwrap();
    load(&frame(&[ext | 3, ext | 4], ext | 5)).unwrap();
    // Counter out of range for the plain format.
    assert!(load(&frame(&[0x1000], 5)).is_err());
    assert!(load(&frame(&[3], 0x1000)).is_err());
    assert!(load(&frame(&[ext | 0x2_0000 | 3], ext | 5)).is_err());
    // Duplicate or out-of-order entries.
    assert!(load(&frame(&[4, 4], 5)).is_err());
    assert!(load(&frame(&[ext | 4, ext | 3], ext | 5)).is_err());
    // A plain window spanning more than the counter tells apart.
    assert!(load(&frame(&[2, 0], 3)).is_err());
    // Plain and extended codes mixed in one daemon.
    assert!(load(&frame(&[3, ext | 4], ext | 5)).is_err());
    assert!(load(&frame(&[ext | 3], 5)).is_err());
    // Truncated frame.
    let bytes = frame(&[3, 4], 5);
    assert!(load(&bytes[..bytes.len() - 1]).is_err());
}

/// Figure 26's 1 ms CF-direct point: 256 MPP nodes, one sample per batch,
/// direct forwarding. The main process saturates and every daemon's
/// in-flight batches pile up; near 6 s a daemon holds 4,096, and a
/// wrapping 12-bit counter would hand out a live token (lookups for both
/// batches then find the older one, and the newer one's pipe slots are
/// never drained: 5,360,325 events and 1,105,764 emitted samples at 7 s).
fn saturated_cfg() -> SimConfig {
    SimConfig {
        arch: Arch::Mpp {
            forwarding: Forwarding::Direct,
        },
        nodes: 256,
        batch: 1,
        sampling_period_us: 1_000.0,
        duration_s: 7.0,
        seed: 0x5EED_CAFE,
        ..Default::default()
    }
}

#[test]
#[ignore = "about 6 M events: release-only, run by scripts/verify.sh"]
fn saturated_main_run_keeps_tokens_unique() {
    let cfg = saturated_cfg();
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut straight = build(&cfg);
    straight.run_until(horizon);
    let events = straight.executed_events();
    let m = straight.model.metrics(horizon - SimTime::ZERO, events);
    assert_eq!(events, 5_913_306);
    assert_eq!(m.emitted_samples, 1_265_170);
    assert_eq!(conservation_violation(&cfg, &m), None);
    let digest = fnv1a(&straight.state_payload());

    // A fork taken at 6.5 s, with extended tokens live, resumes to the
    // same state.
    let mut pre = build(&cfg);
    let bytes = pre.snapshot(SimTime::from_secs_f64(6.5)).expect("snapshot");
    let mut resumed =
        Sim::restore(RoccModel::new(cfg.clone()), CalendarKind::Wheel, &bytes).expect("restore");
    assert_eq!(resumed.snapshot_now(), bytes);
    resumed.run_until(horizon);
    assert_eq!(resumed.executed_events(), events);
    assert_eq!(fnv1a(&resumed.state_payload()), digest);
}
