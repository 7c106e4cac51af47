//! CPU time: what this process used, and what the host stole.
//!
//! On a small VM the hypervisor takes a varying share of the CPU from the
//! guest (host steal). Every request and training step fork-joins across
//! all vCPUs, so a stolen vCPU stalls the whole pipeline and wall-clock
//! rates move with the neighbours rather than with the code. The time a
//! process is charged excludes steal, so work per CPU-second of the
//! process stays put while the wall-clock rate does not; the benchmark's
//! throughput is measured that way. Steal still costs some CPU time too
//! (the neighbours' work evicts caches), so a run measures several equal
//! rounds and takes its figure from those the host left alone.

use std::time::Instant;

/// Cumulative host CPU jiffies, from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct Jiffies {
    steal: u64,
    total: u64,
}

/// The host's CPU jiffies now; `None` where `/proc/stat` is unreadable.
pub fn host_jiffies() -> Option<Jiffies> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some(Jiffies {
        steal: *fields.get(7)?,
        total: fields.iter().sum(),
    })
}

/// Host steal between two readings, in percent of the CPU time that
/// passed (0 if either reading is missing or no time passed).
pub fn steal_pct(from: Option<Jiffies>, to: Option<Jiffies>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) if b.total > a.total => {
            100.0 * b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// Wall-clock and process CPU time of one measured phase, and the host's
/// steal during it.
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_pct: f64,
}

/// Runs `work` as one measured phase.
pub fn measure<T>(work: impl FnOnce() -> T) -> Result<(T, Window), String> {
    let (start, jiffies, cpu0) = (Instant::now(), host_jiffies(), process_s()?);
    let out = work();
    let cpu_s = process_s()? - cpu0;
    let window = Window {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s,
        steal_pct: steal_pct(jiffies, host_jiffies()),
    };
    Ok((out, window))
}

/// Largest host steal, in percent of all CPU time, that a measured round
/// may see and still count as left alone.
pub const MAX_STEAL_PCT: f64 = 3.0;

/// The rounds to measure from, given each round's steal: every round at
/// or under [`MAX_STEAL_PCT`] or, when fewer than `need` are, the `need`
/// rounds of least steal (all of them if there are fewer). Order is kept.
pub fn least_stolen<T>(rounds: Vec<(f64, T)>, need: usize) -> Vec<T> {
    let clean = rounds.iter().filter(|(s, _)| *s <= MAX_STEAL_PCT).count();
    let mut chosen: Vec<bool> = rounds.iter().map(|(s, _)| *s <= MAX_STEAL_PCT).collect();
    if clean < need {
        let mut order: Vec<usize> = (0..rounds.len()).collect();
        order.sort_by(|&a, &b| rounds[a].0.total_cmp(&rounds[b].0).then(a.cmp(&b)));
        chosen.fill(false);
        for &i in order.iter().take(need) {
            chosen[i] = true;
        }
    }
    rounds
        .into_iter()
        .zip(chosen)
        .filter(|(_, c)| *c)
        .map(|((_, t), _)| t)
        .collect()
}

/// Clock ticks per second in `/proc` (Linux's `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far, user plus system, in seconds.
pub fn process_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_process_s(&stat).ok_or_else(|| "unreadable /proc/self/stat".into())
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds. The command
/// name may hold spaces and parentheses, so fields count from the last
/// `)`.
fn parse_process_s(stat: &str) -> Option<f64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_stolen_over_elapsed() {
        let a = Some(Jiffies {
            steal: 10,
            total: 1_000,
        });
        let b = Some(Jiffies {
            steal: 15,
            total: 1_200,
        });
        assert!((steal_pct(a, b) - 2.5).abs() < 1e-12);
        assert_eq!(steal_pct(a, a), 0.0, "no time passed");
        assert_eq!(steal_pct(None, b), 0.0);
        assert_eq!(steal_pct(b, a), 0.0, "readings out of order");
    }

    #[test]
    fn keeps_every_round_left_alone_when_there_are_enough() {
        let rounds = vec![(0.0, 'a'), (9.0, 'b'), (MAX_STEAL_PCT, 'c'), (1.0, 'd')];
        assert_eq!(least_stolen(rounds, 3), vec!['a', 'c', 'd']);
    }

    #[test]
    fn falls_back_to_the_least_stolen_rounds_in_order() {
        let rounds = vec![(12.0, 'a'), (30.0, 'b'), (8.0, 'c'), (1.0, 'd'), (8.0, 'e')];
        assert_eq!(least_stolen(rounds.clone(), 3), vec!['c', 'd', 'e']);
        assert_eq!(least_stolen(rounds.clone(), 1), vec!['d']);
        assert_eq!(least_stolen(rounds, 9).len(), 5, "never more than exist");
    }

    #[test]
    fn process_time_is_utime_plus_stime() {
        let line = "4242 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 9 0";
        assert_eq!(parse_process_s(line), Some(3.25));
        assert_eq!(parse_process_s("4242 (x) R 1 2"), None);
        assert!(process_s().expect("this process's stat") >= 0.0);
    }
}
