//! The `serve` workload: the daemon runs in this process
//! (`Server::start`, one IO thread, one worker, serial evaluation) and
//! one client thread drives a closed loop over one connection with one
//! request in flight, as callers of `bsched serve` do.
//!
//! The hot set is 24 requests warmed in setup: the four `kernels/*.bsk`
//! files sent inline and the eight stand-ins by name, each under the
//! balanced and one traditional scheduler. A round is 96 requests in a
//! seeded order: every hot request three times (cache hits) and every
//! one once more with a fresh `seed` (a miss that does the same compile
//! and simulate work under a new key, inserting into and evicting from
//! the LRU). Hits and misses are told apart by each response's
//! `"cached"` flag.

use std::borrow::Cow;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bsched_analyze::json;
use bsched_serve::{
    evaluate_prepared, evaluate_request, parse_request, prepare_request, KernelSource, Request,
    ScheduleRequest, Server, ServerConfig,
};
use bsched_stats::{Pcg32, SplitMix64};
use bsched_workload::{parse_program, perfect_club, try_lower_parsed};

use crate::measure::{self, Latencies};
use crate::trace::{span, Tracer};
use crate::Outcome;
#[cfg(test)]
use crate::Phase;

const SYSTEM: &str = "N(3,5)";
const SCHEDULERS: [&str; 2] = ["balanced", "traditional=2"];
const CACHE_CAPACITY: usize = 256;
/// A request the IO thread answers itself: its round trip is the
/// transport alone (socket, event loop, framing), with no pool hand-off.
const PING: &str = "{\"op\":\"ping\"}";
/// A schedule request the worker rejects at once (its benchmark does not
/// exist): its round trip is the transport plus the pool hand-off.
const REJECTED: &str =
    "{\"benchmark\":\"no-such-benchmark\",\"scheduler\":\"balanced\",\"system\":\"N(3,5)\"}";

/// The 24 hot request templates, as JSON members without `id`/`seed`.
pub fn templates() -> Result<Vec<String>, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../kernels");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bsk"))
        .collect();
    files.sort();
    let mut sources = Vec::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        sources.push(format!("\"kernel\":{}", json::string(&text)));
    }
    for bench in perfect_club() {
        sources.push(format!("\"benchmark\":{}", json::string(bench.name())));
    }
    let mut out = Vec::new();
    for src in &sources {
        for sched in SCHEDULERS {
            out.push(format!(
                "{src},\"scheduler\":\"{sched}\",\"system\":\"{SYSTEM}\""
            ));
        }
    }
    Ok(out)
}

/// One request of a round: a hot template, or a template under a fresh
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Hot(usize),
    Fresh(usize),
}

/// One round: every hot request three times and every template once
/// with a fresh seed, in a seeded order.
pub fn round(n_templates: usize, rng: &mut Pcg32) -> Vec<Req> {
    let mut reqs: Vec<Req> = (0..n_templates)
        .flat_map(|t| [Req::Hot(t), Req::Hot(t), Req::Hot(t), Req::Fresh(t)])
        .collect();
    measure::shuffle(&mut reqs, rng);
    reqs
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(response.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The fields of an `ok` schedule response this harness checks.
#[derive(Debug, PartialEq)]
pub struct Reply<'a> {
    pub cached: bool,
    pub payload: &'a str,
    pub service_us: u64,
}

/// Splits an `ok` response for request `id` into its cache flag,
/// payload and reported service time; `None` for anything else.
pub fn reply<'a>(line: &'a str, id: &str) -> Option<Reply<'a>> {
    let rest = line.strip_prefix(&format!(
        "{{\"id\":{},\"status\":\"ok\",\"cached\":",
        json::string(id)
    ))?;
    let (cached, rest) = match rest.split_once(',') {
        Some(("true", rest)) => (true, rest),
        Some(("false", rest)) => (false, rest),
        _ => return None,
    };
    let (payload, tail) = rest.rsplit_once(",\"service_us\":")?;
    let service_us = tail.strip_suffix('}')?.parse().ok()?;
    Some(Reply {
        cached,
        payload,
        service_us,
    })
}

fn schedule_request(line: &str) -> Result<ScheduleRequest, String> {
    match parse_request(line)? {
        Request::Schedule(req) => Ok(*req),
        other => Err(format!("not a schedule request: {other:?}")),
    }
}

/// Times the two halves of `prepare_request`'s source resolution for an
/// inline kernel (`parse_program`, then `try_lower_parsed`); a no-op
/// when untraced.
fn trace_resolve(req: &ScheduleRequest, tracer: Option<&Tracer>) -> Result<(), String> {
    let (Some(_), KernelSource::Inline(text)) = (tracer, &req.source) else {
        return Ok(());
    };
    let kernels = {
        let _s = span(tracer, "workload.parse");
        parse_program(text).map_err(|e| e.to_string())?
    };
    let _s = span(tracer, "workload.lower");
    for k in &kernels {
        try_lower_parsed(k).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Daemon counters read through `/stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    parks: u64,
    steals: u64,
}

fn counters(client: &mut Client) -> Result<Counters, String> {
    let line = client.call("/stats")?;
    let v = json::parse(&line).ok_or("unparsable /stats")?;
    let stats = v.get("stats").ok_or("no stats in /stats")?;
    let field = |k: &str| {
        stats
            .get(k)
            .and_then(json::Json::as_u64)
            .ok_or(format!("/stats lacks {k}"))
    };
    Ok(Counters {
        hits: field("cache_hits")?,
        misses: field("cache_misses")?,
        parks: field("parks")?,
        steals: field("steals")?,
    })
}

/// Correct replies by class (`HIT`, `MISS`): client latencies and the
/// sum of the daemon's reported service times.
#[derive(Debug, Default)]
struct Split {
    lat: [Latencies; 2],
    service_us: [f64; 2],
}

const HIT: usize = 0;
const MISS: usize = 1;

/// A running daemon plus the client connected to it.
struct Session {
    server: Server,
    client: Client,
    templates: Vec<String>,
    /// In-process `evaluate_request` payloads of the hot requests.
    hot: Vec<String>,
    next_id: u64,
    seed_base: u64,
    fresh: u64,
}

impl Session {
    fn start(templates: Vec<String>, seed: u64) -> Result<Session, String> {
        let server = Server::start(ServerConfig {
            workers: 1,
            io_threads: 1,
            cache_capacity: CACHE_CAPACITY,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(server.local_addr())?;
        // Fresh seeds stay below 2^53 (the protocol's integer range) and
        // far above the default seed the hot requests use.
        let seed_base = (1 << 40) + (SplitMix64::new(seed).next_u64() % (1 << 24)) * (1 << 24);
        let mut s = Session {
            server,
            client,
            templates,
            hot: Vec::new(),
            next_id: 0,
            seed_base,
            fresh: 0,
        };
        for t in 0..s.templates.len() {
            let (id, line) = s.line(Req::Hot(t));
            let response = s.client.call(&line)?;
            let r = reply(&response, &id).ok_or_else(|| format!("warm-up failed: {response}"))?;
            s.hot.push(r.payload.to_owned());
        }
        Ok(s)
    }

    fn stop(self) {
        drop(self.client);
        self.server.begin_shutdown();
        self.server.join();
    }

    fn line(&mut self, req: Req) -> (String, String) {
        self.next_id += 1;
        let id = format!("r{}", self.next_id);
        let (t, seed) = match req {
            Req::Hot(t) => (t, String::new()),
            Req::Fresh(t) => {
                self.fresh += 1;
                (t, format!(",\"seed\":{}", self.seed_base + self.fresh))
            }
        };
        let line = format!("{{\"id\":\"{id}\",{}{seed}}}", self.templates[t]);
        (id, line)
    }

    /// Checks the hot payloads collected during warm-up against
    /// in-process evaluations.
    fn check_hot(&self) -> Result<(), String> {
        for (t, payload) in self.hot.iter().enumerate() {
            let line = format!("{{{}}}", self.templates[t]);
            let want = evaluate_request(&schedule_request(&line)?).map_err(|(_, e)| e)?;
            if want.payload != *payload {
                return Err(format!(
                    "hot request {t}: payload differs from evaluate_request"
                ));
            }
        }
        Ok(())
    }

    /// Sends one request and checks the reply outside its timing: a hot
    /// request against its stored payload, a fresh one against an
    /// in-process `prepare_request` + `evaluate_prepared`. Returns the
    /// latency and whether the reply was right.
    ///
    /// Traced rounds build the in-process reference before sending, so
    /// its layers run on caches as cold as the daemon's are in untraced
    /// rounds, and then time the transport on its own.
    fn op(
        &mut self,
        req: Req,
        tracer: Option<&Tracer>,
        split: &mut Split,
    ) -> Result<(Duration, bool), String> {
        let (id, line) = self.line(req);
        let _request = span(tracer, "serve.request");
        let early = tracer.map(|_| expected(&self.hot, req, &line, tracer));
        let t0 = Instant::now();
        let response = {
            let _s = span(tracer, "serve.roundtrip");
            self.client.call(&line)?
        };
        let dt = t0.elapsed();
        let want = early.unwrap_or_else(|| expected(&self.hot, req, &line, None));
        let Some(r) = reply(&response, &id) else {
            eprintln!("serve: unexpected response {response}");
            return Ok((dt, false));
        };
        match want {
            Ok(want) if r.payload == want => {}
            Ok(_) => {
                eprintln!("serve: request {id} payload differs from its in-process evaluation");
                return Ok((dt, false));
            }
            Err(e) => {
                eprintln!("serve: request {id} could not be evaluated in process: {e}");
                return Ok((dt, false));
            }
        }
        let class = if r.cached { HIT } else { MISS };
        split.service_us[class] += r.service_us as f64;
        split.lat[class].push(dt);
        if tracer.is_some() {
            let pong = {
                let _s = span(tracer, "serve.transport");
                self.client.call(PING)?
            };
            if !pong.contains("\"pong\":true") {
                return Err(format!("ping answered {pong}"));
            }
            let rejected = {
                let _s = span(tracer, "serve.pool");
                self.client.call(REJECTED)?
            };
            if !rejected.contains("\"status\":\"error\"") {
                return Err(format!("unknown benchmark answered {rejected}"));
            }
        }
        Ok((dt, true))
    }
}

/// The payload a request must get back: a hot request's stored payload,
/// or a fresh one evaluated in process. Traced, it also times the layers
/// the daemon runs for the request: protocol parse, source resolution,
/// prepare and, for a fresh request, evaluation.
fn expected<'a>(
    hot: &'a [String],
    req: Req,
    line: &str,
    tracer: Option<&Tracer>,
) -> Result<Cow<'a, str>, String> {
    if let (Req::Hot(t), None) = (req, tracer) {
        return Ok(Cow::Borrowed(&hot[t]));
    }
    let parsed = {
        let _s = span(tracer, "serve.parse");
        schedule_request(line)?
    };
    trace_resolve(&parsed, tracer)?;
    let prepare = match req {
        Req::Hot(_) => "serve.prepare_hit",
        Req::Fresh(_) => "serve.prepare_miss",
    };
    let prepared = {
        let _s = span(tracer, prepare);
        prepare_request(&parsed).map_err(|(_, e)| e)?
    };
    if let Req::Hot(t) = req {
        return Ok(Cow::Borrowed(&hot[t]));
    }
    let _s = span(tracer, "serve.evaluate");
    let done = evaluate_prepared(&parsed, prepared).map_err(|(_, e)| e)?;
    Ok(Cow::Owned(done.payload))
}

pub fn run(seed: u64, seconds: f64, traced: bool, setups: usize) -> Result<Outcome, String> {
    let templates = templates()?;
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..setups {
        if let Some(old) = session.take() {
            Session::stop(old);
        }
        let t0 = Instant::now();
        session = Some(Session::start(templates.clone(), seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = session.expect("at least one setup");
    let mut outcome = Outcome::new("serve", 1, setup_s);
    if let Err(e) = s.check_hot() {
        outcome.fail(e);
    }
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x5E7E_0001);
    let tracer = traced.then(Tracer::default);
    let mut splits = [Split::default(), Split::default()];
    let before = counters(&mut s.client)?;
    let [plain, phase] = measure::rounds(Duration::from_secs_f64(seconds), traced, |phase, on| {
        let split = &mut splits[usize::from(on)];
        let mut spent = Duration::ZERO;
        for req in round(s.templates.len(), &mut rng) {
            phase.attempted += 1;
            let (dt, ok) = s.op(req, if on { tracer.as_ref() } else { None }, split)?;
            spent += dt;
            if ok {
                phase.correct += 1;
                phase.lat.push(dt);
            }
        }
        // Untraced rounds report hit and miss percentiles, so they wait
        // for enough of both.
        let population = if on {
            phase.lat.len()
        } else {
            split.lat[HIT].len().min(split.lat[MISS].len())
        };
        Ok((spent, population))
    })?;
    let after = counters(&mut s.client)?;
    s.stop();
    let [plain_split, split] = splits;
    let Some(tracer) = tracer else {
        // In place of the unsplit latencies, a warm hit's p50 and a cold
        // miss's p99: the top 1% of the unsplit mix sits on the edge of
        // the slowest template's misses (1/96 of the requests), where it
        // jumps between templates from run to run.
        outcome.absorb(&plain, &plain_split.lat[HIT], &plain_split.lat[MISS]);
        return Ok(outcome);
    };
    outcome.count(&plain);
    outcome.count(&phase);

    for (class, name) in [(HIT, "hit"), (MISS, "miss")] {
        match plain_split.lat[class].p50_p99() {
            Ok((p50, p99)) => {
                outcome.layer(&format!("serve.{name}_latency_p50_ms"), p50, "ms");
                outcome.layer(&format!("serve.{name}_latency_p99_ms"), p99, "ms");
            }
            Err(e) => outcome.fail(format!("{name} latency: {e}")),
        }
    }
    let by = crate::trace::totals(&tracer.spans());
    let self_us = |name: &str| by.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let ops = phase.correct.max(1) as f64;
    let count = |class: usize| split.lat[class].len() as f64;
    let (hits, misses) = (count(HIT).max(1.0), count(MISS).max(1.0));
    let prepare = [
        self_us("serve.prepare_hit") / hits,
        self_us("serve.prepare_miss") / misses,
    ];
    let evaluate = self_us("serve.evaluate") / misses;
    let service = [
        split.service_us[HIT] / hits,
        split.service_us[MISS] / misses,
    ];
    let overhead = [
        split.lat[HIT].mean_ms() * 1e3 - service[HIT],
        split.lat[MISS].mean_ms() * 1e3 - service[MISS],
    ];
    outcome.layer("serve.prepare_hit_us", prepare[HIT], "us");
    outcome.layer("serve.prepare_miss_us", prepare[MISS], "us");
    outcome.layer("serve.evaluate_us", evaluate, "us");
    outcome.layer("serve.service_hit_us", service[HIT], "us");
    outcome.layer("serve.service_miss_us", service[MISS], "us");
    outcome.layer("serve.overhead_hit_us", overhead[HIT], "us");
    outcome.layer("serve.overhead_miss_us", overhead[MISS], "us");
    let transport = self_us("serve.transport") / ops;
    let pool = self_us("serve.pool") / ops;
    let parse = self_us("serve.parse") / ops;
    outcome.layer("serve.parse_us", parse, "us");
    outcome.layer("serve.transport_us", transport, "us");
    outcome.layer("serve.handoff_us", pool - transport, "us");
    outcome.layer("workload.parse_us", self_us("workload.parse") / ops, "us");
    outcome.layer("workload.lower_us", self_us("workload.lower") / ops, "us");
    // The `/stats` deltas cover both halves of the window.
    let lookups = (after.hits - before.hits + after.misses - before.misses).max(1);
    outcome.layer(
        "serve.cache_hit_ratio",
        (after.hits - before.hits) as f64 / lookups as f64,
        "ratio",
    );
    let all_ops = (plain.attempted + phase.attempted).max(1) as f64;
    outcome.layer(
        "serve.parks_per_op",
        (after.parks - before.parks) as f64 / all_ops,
        "count",
    );
    outcome.layer(
        "serve.steals",
        (after.steals - before.steals) as f64,
        "count",
    );

    // The layers' prediction of a mean request, each layer timed on its
    // own: the protocol parse, prepare (and evaluate, for misses) in
    // process, plus the round trip of a request the pool rejects at once
    // (transport and hand-off). The cache, and the cost of a payload's
    // bytes on the wire, are left out and show as attribution error.
    let attributed_us =
        parse + (count(HIT) * prepare[HIT] + count(MISS) * (prepare[MISS] + evaluate)) / ops + pool;
    outcome.trace_summary(&plain, &phase, attributed_us / 1e3);
    outcome.tracer = Some(tracer);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_have_a_fixed_mix_and_a_seeded_order() {
        let a = round(24, &mut Pcg32::seed_from_u64(1));
        assert_eq!(a, round(24, &mut Pcg32::seed_from_u64(1)));
        let b = round(24, &mut Pcg32::seed_from_u64(2));
        assert_ne!(a, b);
        let census = |r: &[Req]| {
            let mut c: Vec<Req> = r.to_vec();
            c.sort_by_key(|q| match q {
                Req::Hot(t) => (0, *t),
                Req::Fresh(t) => (1, *t),
            });
            c
        };
        assert_eq!(census(&a), census(&b));
        assert_eq!(a.iter().filter(|q| matches!(q, Req::Fresh(_))).count(), 24);
        assert_eq!(templates().expect("kernels readable").len(), 24);
    }

    #[test]
    fn reply_splits_the_envelope() {
        let line = r#"{"id":"r7","status":"ok","cached":true,"schedule":{"x":1},"eval":{},"service_us":42}"#;
        let r = reply(line, "r7").expect("ok reply");
        assert!(r.cached);
        assert_eq!(r.payload, r#""schedule":{"x":1},"eval":{}"#);
        assert_eq!(r.service_us, 42);
        assert!(reply(line, "r8").is_none());
        assert!(reply(
            r#"{"id":"r7","status":"error","kind":"parse","reason":"x"}"#,
            "r7"
        )
        .is_none());
    }

    #[test]
    fn a_malformed_request_lowers_ok_ratio() {
        let mut templates = templates().expect("kernels readable");
        templates.truncate(2);
        let mut s = Session::start(templates, 3).expect("session");
        s.check_hot().expect("hot payloads match");
        // Break the second template after warm-up: its next request
        // names no kernel source and gets a typed error back.
        s.templates[1] = "\"system\":\"N(3,5)\"".to_owned();
        let mut phase = Phase::default();
        let mut split = Split::default();
        for req in [Req::Hot(0), Req::Fresh(0), Req::Hot(1)] {
            phase.attempted += 1;
            if s.op(req, None, &mut split).expect("transport works").1 {
                phase.correct += 1;
            }
        }
        s.stop();
        assert_eq!((phase.attempted, phase.correct), (3, 2));
        assert_eq!([split.lat[HIT].len(), split.lat[MISS].len()], [1, 1]);
        let mut outcome = Outcome::new("serve", 1, vec![0.1]);
        outcome.count(&phase);
        assert_eq!(outcome.failed, 1);
        assert!((outcome.ok_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
