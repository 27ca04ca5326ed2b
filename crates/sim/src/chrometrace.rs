//! Chrome-trace export of watched-net toggle timelines.
//!
//! The [`crate::vcd`] sibling for the `chrome://tracing` / Perfetto
//! viewer: each watched net becomes its own track (`tid`), and every
//! interval between value changes becomes a complete event (`ph:"X"`)
//! named after the logic value held over that interval — so a net's
//! waveform reads directly off the track. A `net_toggles` counter track
//! (`ph:"C"`) carries the cumulative change count over time.
//!
//! Time base: the kernel's picoseconds are exported one-per-microsecond
//! unit (Chrome's `ts`/`dur` are microseconds), so 1 viewer-µs = 1 sim-ps.
//! The document is self-contained JSON — load the written file straight
//! into the viewer.

use crate::engine::Simulator;
use crate::netlist::{NetId, Netlist};
use pmorph_util::json::Value;

/// Render the watched nets' toggle timelines of `sim`, which simulates
/// `netlist` (the source of the net names), as a Chrome trace document.
///
/// Nets that were never watched contribute a single interval holding
/// their current value. Events are sorted (metadata records first, then
/// by `ts`) and share one `pid`, matching what the trace-viewer schema
/// expects from a single-process export.
pub fn dump_chrome_trace(
    sim: &Simulator,
    netlist: &Netlist,
    nets: &[NetId],
    module: &str,
) -> Value {
    let pid = std::process::id() as f64;
    // The end of the visible window: the sim clock, or the last recorded
    // change if the sim somehow sits earlier (restore rewinds time).
    let mut end = sim.time();
    for &n in nets {
        if let Some(&(t, _)) = sim.trace(n).last() {
            end = end.max(t);
        }
    }

    let mut metadata: Vec<Value> = Vec::new();
    let mut spans: Vec<(u64, Value)> = Vec::new();
    let mut toggle_times: Vec<u64> = Vec::new();

    // Track 0 is the counter's home; nets get 1-based tids in input order.
    metadata.push(meta_event("process_name", module, pid, 0.0));
    for (i, &n) in nets.iter().enumerate() {
        let tid = (i + 1) as f64;
        let name = &netlist.nets[n.0 as usize].name;
        metadata.push(meta_event("thread_name", name, pid, tid));
        let recorded = sim.trace(n);
        let fallback = [(0u64, sim.value(n))];
        let timeline: &[(u64, crate::logic::Logic)] =
            if recorded.is_empty() { &fallback } else { recorded };
        for (k, &(t, v)) in timeline.iter().enumerate() {
            let until = timeline.get(k + 1).map_or(end.max(t), |&(t1, _)| t1);
            let mut o = Value::object();
            o.set("name", Value::Str(v.to_char().to_string()));
            o.set("cat", Value::Str("net".into()));
            o.set("ph", Value::Str("X".into()));
            o.set("ts", Value::Num(t as f64));
            o.set("dur", Value::Num((until - t) as f64));
            o.set("pid", Value::Num(pid));
            o.set("tid", Value::Num(tid));
            spans.push((t, o));
            if k > 0 {
                toggle_times.push(t);
            }
        }
    }
    toggle_times.sort_unstable();
    for (count, &t) in toggle_times.iter().enumerate() {
        let mut o = Value::object();
        o.set("name", Value::Str("net_toggles".into()));
        o.set("cat", Value::Str("counter".into()));
        o.set("ph", Value::Str("C".into()));
        o.set("ts", Value::Num(t as f64));
        o.set("pid", Value::Num(pid));
        o.set("tid", Value::Num(0.0));
        let mut args = Value::object();
        args.set("value", Value::Num((count + 1) as f64));
        o.set("args", args);
        spans.push((t, o));
    }
    spans.sort_by_key(|&(t, _)| t);

    let mut events = metadata;
    events.extend(spans.into_iter().map(|(_, e)| e));
    let mut doc = Value::object();
    doc.set("traceEvents", Value::Array(events));
    doc.set("displayTimeUnit", Value::Str("ms".into()));
    doc
}

fn meta_event(kind: &str, label: &str, pid: f64, tid: f64) -> Value {
    let mut o = Value::object();
    o.set("name", Value::Str(kind.into()));
    o.set("ph", Value::Str("M".into()));
    o.set("ts", Value::Num(0.0));
    o.set("pid", Value::Num(pid));
    o.set("tid", Value::Num(tid));
    let mut args = Value::object();
    args.set("name", Value::Str(label.into()));
    o.set("args", args);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::logic::Logic;

    fn f64_of(v: &Value, key: &str) -> f64 {
        v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing number {key}"))
    }

    #[test]
    fn toggle_timeline_loads_by_schema() {
        let mut b = NetlistBuilder::new();
        let a = b.net("a");
        let y = b.net("y");
        b.inv_into(a, y);
        let nl = b.build();
        let mut sim = Simulator::new(&nl);
        sim.watch(a);
        sim.watch(y);
        sim.drive(a, Logic::L0);
        sim.settle(1000).unwrap();
        sim.drive_at(a, Logic::L1, 100);
        sim.settle(1000).unwrap();

        let doc = dump_chrome_trace(&sim, &nl, &[a, y], "top");
        // Round-trip through the serializer: the written file must parse.
        let doc = pmorph_util::json::parse(&doc.to_string_compact()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert!(events.len() >= 5, "metadata + intervals + counters: {}", events.len());

        // Schema: metadata first, then non-decreasing ts; one pid; every
        // span's tid names a declared track.
        let pid = f64_of(&events[0], "pid");
        let mut tracks = Vec::new();
        let mut last_ts = f64::MIN;
        let mut metadata_done = false;
        for ev in events {
            assert_eq!(f64_of(ev, "pid"), pid);
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            if ph == "M" {
                assert!(!metadata_done, "metadata must lead");
                tracks.push(f64_of(ev, "tid"));
                continue;
            }
            metadata_done = true;
            let ts = f64_of(ev, "ts");
            assert!(ts >= last_ts, "sorted ts");
            last_ts = ts;
            assert!(tracks.contains(&f64_of(ev, "tid")), "tid must be declared");
            match ph {
                "X" => assert!(f64_of(ev, "dur") >= 0.0),
                "C" => assert!(f64_of(ev.get("args").unwrap(), "value") >= 1.0),
                other => panic!("unexpected phase {other}"),
            }
        }

        // The drive at t=100 shows up as a "1" interval starting there on
        // net `a`'s track (tid 1).
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("name").and_then(Value::as_str) == Some("1")
                    && f64_of(e, "tid") == 1.0
                    && f64_of(e, "ts") == 100.0
            }),
            "t=100 rising edge missing"
        );
        // The inverter's response lands on net `y`'s track (tid 2).
        assert!(events.iter().any(|e| f64_of(e, "tid") == 2.0));
    }

    #[test]
    fn unwatched_nets_hold_their_current_value() {
        let mut b = NetlistBuilder::new();
        let a = b.net("a");
        let nl = b.build();
        let mut sim = Simulator::new(&nl);
        sim.drive(a, Logic::L1);
        sim.settle(100).unwrap();
        let doc = dump_chrome_trace(&sim, &nl, &[a], "top");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let spans: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 1, "one holding interval for an unwatched net");
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("1"));
    }
}
