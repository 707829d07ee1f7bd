//! `lowdiff-ctl` — inspect and operate on a LowDiff checkpoint directory.
//!
//! ```text
//! lowdiff-ctl list <dir>                 list checkpoints and chains
//! lowdiff-ctl validate <dir>             CRC-check every checkpoint object
//! lowdiff-ctl health <dir>               chain-integrity report + exit code
//! lowdiff-ctl resume-info <dir>          what a Trainer::resume would restore
//! lowdiff-ctl recover <dir> [--shards N] [--out FILE]
//!                                        restore the newest state
//! lowdiff-ctl gc <dir> --keep-from ITER  delete older checkpoints
//! lowdiff-ctl inspect <blob>             wire-format summary of one blob
//! lowdiff-ctl cluster <addr> [shutdown]  query (or stop) a coordinator
//! ```
//!
//! Storage errors never panic: every command degrades to a diagnostic on
//! stderr and a non-zero exit code.

use lowdiff::recovery::{recover_serial, recover_sharded};
use lowdiff_optim::Adam;
use lowdiff_storage::{codec, CheckpointStore, DiskBackend, FullCheckpoint};
use std::io::Write;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

/// `println!` that survives a closed downstream pipe: `lowdiff-ctl list |
/// head` must exit cleanly, not panic on EPIPE.
macro_rules! out {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            exit(0);
        }
    };
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  lowdiff-ctl list <dir>\n  lowdiff-ctl validate <dir>\n  \
         lowdiff-ctl health <dir>\n  lowdiff-ctl resume-info <dir>\n  \
         lowdiff-ctl recover <dir> [--shards N] [--out FILE]\n  \
         lowdiff-ctl gc <dir> --keep-from ITER\n  \
         lowdiff-ctl inspect <blob>\n  \
         lowdiff-ctl cluster <addr> [shutdown]"
    );
    exit(2);
}

/// Unwrap a storage result or exit with a diagnostic — never panic.
fn or_die<T>(what: &str, r: std::io::Result<T>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{what}: {e}");
            exit(1);
        }
    }
}

fn open(dir: &str) -> CheckpointStore {
    match DiskBackend::new(dir) {
        Ok(b) => CheckpointStore::new(Arc::new(b)),
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            exit(1);
        }
    }
}

/// Pull one value out of the engine's flat health JSON. The blob is
/// written by `CheckpointEngine::export_health` — a single-level object
/// with no string escapes — so a scan for `"key":` up to the next
/// delimiter is exact; no JSON library needed.
fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn fmt_bytes(n: usize) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2} GB", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1} MB", n as f64 / 1e6)
    } else {
        format!("{:.1} KB", n as f64 / 1e3)
    }
}

/// Read the checkpoint object `key` through the store, in whichever
/// layout holds it: its payload size (0 when unreadable) and whether
/// `decodes` accepts the payload.
fn audit(store: &CheckpointStore, key: &str, decodes: fn(&[u8]) -> bool) -> (usize, bool) {
    match store.get_object(key) {
        Ok(bytes) => (bytes.len(), decodes(&bytes)),
        Err(_) => (0, false),
    }
}

fn full_decodes(bytes: &[u8]) -> bool {
    codec::decode_full_checkpoint(bytes).is_ok()
}

fn diff_decodes(bytes: &[u8]) -> bool {
    codec::decode_diff_batch(bytes).is_ok()
}

/// Where `recover` lands: the newest full that decodes and the length of
/// the differential chain past it; `None` when no full decodes.
fn frontier(store: &CheckpointStore) -> Option<(FullCheckpoint, usize)> {
    let fc = or_die(
        "read latest full checkpoint",
        store.latest_valid_full_checkpoint(),
    )?;
    let chain = or_die(
        "walk differential chain",
        store.diff_chain_from(fc.state.iteration),
    );
    Some((fc, chain.len()))
}

fn cmd_list(dir: &str) {
    let store = open(dir);
    let fulls = or_die("list full checkpoints", store.full_iterations());
    out!("full checkpoints ({}):", fulls.len());
    for it in &fulls {
        let (size, valid) = audit(&store, &CheckpointStore::full_key(*it), full_decodes);
        out!(
            "  iter {:>8}  {:>10}  {}",
            it,
            fmt_bytes(size),
            if valid { "ok" } else { "CORRUPT" }
        );
    }
    let diffs = or_die("list differential batches", store.diff_keys());
    out!("differential batches ({}):", diffs.len());
    for dk in &diffs {
        let (size, valid) = audit(&store, &dk.key, diff_decodes);
        out!(
            "  iters {:>8}..={:<8}  {:>10}  {}",
            dk.start,
            dk.end,
            fmt_bytes(size),
            if valid { "ok" } else { "CORRUPT" }
        );
    }
    if let Some((fc, replayed)) = frontier(&store) {
        let anchor = fc.state.iteration;
        out!(
            "recoverable to iteration {} (full@{anchor} + {replayed} differentials)",
            anchor + replayed as u64
        );
    } else {
        out!("no valid full checkpoint: nothing recoverable");
    }
}

fn cmd_validate(dir: &str) {
    let store = open(dir);
    let fulls = or_die("list full checkpoints", store.full_iterations());
    let diffs = or_die("list differential batches", store.diff_keys());
    let unsealed = or_die("list unsealed objects", store.unsealed());
    // Every object in either layout: a striped one passes only if its
    // manifest, every stripe CRC and the payload decode all check out.
    let total = fulls.len() + diffs.len();
    let mut bad = 0usize;
    let mut check = |key: &str, decodes: fn(&[u8]) -> bool| {
        if !audit(&store, key, decodes).1 {
            out!("CORRUPT     {key}");
            bad += 1;
        }
    };
    for it in fulls {
        check(&CheckpointStore::full_key(it), full_decodes);
    }
    for dk in &diffs {
        check(&dk.key, diff_decodes);
    }
    // Data objects whose seal never landed: garbage a crashed fan-out
    // left behind, swept on resume, not corruption.
    for key in &unsealed {
        out!("UNSEALED    {key}");
    }
    out!(
        "{total} objects checked, {bad} corrupt, {} unsealed",
        unsealed.len()
    );
    if bad > 0 {
        exit(1);
    }
}

fn cmd_recover(dir: &str, shards: usize, out: Option<&str>) {
    let store = open(dir);
    let adam = Adam::default();
    let start = Instant::now();
    let (result, mode) = if shards <= 1 {
        (recover_serial(&store, &adam), "serial".to_string())
    } else {
        (
            recover_sharded(&store, &adam, shards),
            format!("sharded x{shards}"),
        )
    };
    let elapsed = start.elapsed();
    match result {
        Ok(Some((state, report))) => {
            out!(
                "recovered to iteration {} (full@{} + {} differentials, {mode} mode, {elapsed:?})",
                state.iteration,
                report.full_iteration,
                report.replayed,
            );
            if let Some(path) = out {
                let bytes = codec::encode_model_state(&state);
                or_die("write output", std::fs::write(path, &bytes));
                out!("wrote {} to {path}", fmt_bytes(bytes.len()));
            }
        }
        Ok(None) => {
            eprintln!("no valid checkpoint found in {dir}");
            exit(1);
        }
        Err(e) => {
            eprintln!("recovery failed: {e}");
            exit(1);
        }
    }
}

fn cmd_gc(dir: &str, keep_from: u64) {
    let store = open(dir);
    let removed = or_die("garbage-collect", store.gc_before(keep_from));
    out!("removed {removed} blobs older than iteration {keep_from}");
}

/// Chain-integrity report: how healthy is this checkpoint directory?
///
/// Exit code 0 when a valid full exists and every differential past it
/// chains contiguously; 1 otherwise. Mirrors the runtime health surfaced
/// in `StrategyStats` (io_errors / dropped batches show up here as chain
/// gaps and corrupt blobs).
fn cmd_health(dir: &str) {
    let store = open(dir);
    let fulls = or_die("list full checkpoints", store.full_iterations());
    let corrupt_fulls = fulls
        .iter()
        .filter(|&&it| store.load_full(it).is_err())
        .count();
    let diffs = or_die("list differential batches", store.diff_keys());
    let corrupt_diffs = diffs
        .iter()
        .filter(|dk| !audit(&store, &dk.key, diff_decodes).1)
        .count();
    out!(
        "fulls: {} ({} corrupt)   diff batches: {} ({} corrupt)",
        fulls.len(),
        corrupt_fulls,
        diffs.len(),
        corrupt_diffs
    );

    let Some((fc, replayed)) = frontier(&store) else {
        out!("UNHEALTHY: no valid full checkpoint — nothing recoverable");
        exit(1);
    };
    let anchor = fc.state.iteration;
    let reachable = anchor + replayed as u64;
    // Diffs newer than the reachable frontier are stranded behind a gap
    // (a dropped batch or torn write broke the chain there).
    let stranded = diffs.iter().filter(|dk| dk.start > reachable).count();
    out!("recoverable to iteration {reachable} (full@{anchor} + {replayed} differentials)");
    if stranded > 0 {
        out!(
            "DEGRADED: {stranded} diff batch(es) stranded past a chain gap \
             at iteration {reachable} — data after the gap is unreachable \
             until the next full checkpoint"
        );
    }
    // Engine telemetry, when the run exported its health blob.
    let mut saturated = false;
    if let Ok(blob) = store.backend().get(lowdiff::engine::HEALTH_KEY) {
        let json = String::from_utf8_lossy(&blob);
        let f = |k: &str| json_field(&json, k).unwrap_or("?").to_string();
        let num = |k: &str| json_field(&json, k).and_then(|v| v.parse::<u64>().ok());
        out!(
            "engine: strategy={} stall={}s queue {}/{} (peak {})",
            f("strategy"),
            f("stall_seconds"),
            f("queue_depth"),
            f("queue_capacity"),
            f("queue_peak"),
        );
        for stage in ["snapshot", "encode", "persist"] {
            out!(
                "  {:<8} count={:<8} p50={}us p99={}us",
                stage,
                f(&format!("{stage}_count")),
                f(&format!("{stage}_p50_us")),
                f(&format!("{stage}_p99_us")),
            );
        }
        out!(
            "  io_errors={} io_retries={} dropped_batches={} degraded={}",
            f("io_errors"),
            f("io_retries"),
            f("dropped_batches"),
            f("degraded"),
        );
        // Per-tier write ledger: "name b=<bytes> a=<acks> e=<errors> c=<clamped>"
        // entries joined with '|' (the blob stays comma-free so the flat
        // scanner above keeps working). `c=` is absent in pre-clamp health
        // blobs; render it only when present.
        if let Some(tiers) = json_field(&json, "tiers").filter(|t| !t.is_empty()) {
            out!("  recovery tiers:");
            for tier in tiers.split('|') {
                let name = tier.split(' ').next().unwrap_or("?");
                let field = |tag: &str| {
                    tier.split(' ')
                        .find_map(|p| p.strip_prefix(tag))
                        .unwrap_or("?")
                        .to_string()
                };
                let clamped = field("c=");
                let clamped = if clamped != "?" && clamped != "0" {
                    format!(" clamped={clamped}")
                } else {
                    String::new()
                };
                out!(
                    "    {:<8} bytes={:<12} acks={:<8} errors={}{}",
                    name,
                    field("b="),
                    field("a="),
                    field("e="),
                    clamped,
                );
            }
        }
        if let (Some(depth), Some(cap)) = (num("queue_depth"), num("queue_capacity")) {
            if cap > 0 && depth >= cap {
                saturated = true;
                out!(
                    "SATURATED: persist queue full ({depth}/{cap}) — \
                     training was stalling on checkpoint backpressure"
                );
            }
        }
    }
    if corrupt_fulls > 0 || corrupt_diffs > 0 || stranded > 0 || saturated {
        exit(1);
    }
    out!("healthy");
}

/// What `Trainer::resume` would restore from this directory: which
/// auxiliary sections (EF residual, compressor identity, data-RNG cursor)
/// the anchor full carries, and how far the differential chain can
/// fast-forward. Exit code 1 when the only resume possible is lossy (the
/// anchor full was written without aux).
fn cmd_resume_info(dir: &str) {
    let store = open(dir);
    let Some((fc, replayable)) = frontier(&store) else {
        eprintln!("no valid full checkpoint in {dir}: resume would cold-start");
        exit(1);
    };
    let anchor = fc.state.iteration;
    out!("anchor: full@{anchor} ({} params)", fc.state.num_params());
    let opt = |present: bool| if present { "present" } else { "absent" };
    out!(
        "aux: residual={} compressor={} rng-cursor={}",
        opt(fc.aux.residual.is_some()),
        match fc.aux.compressor {
            Some(c) => format!("{c:?}"),
            None => "absent".into(),
        },
        opt(fc.aux.rng.is_some()),
    );
    if fc.aux.residual.is_some() {
        out!(
            "error-feedback run: resume anchors at full@{anchor} \
             ({replayable} differential(s) past it are superseded by the residual)"
        );
    } else {
        out!(
            "fast-forward: {replayable} differential(s) replayable to iteration {}",
            anchor + replayable as u64
        );
    }
    if fc.lossy {
        out!(
            "LOSSY: blob carries no auxiliary state — an error-feedback \
             run resumed from it may silently diverge"
        );
        exit(1);
    }
    out!("resume is bit-exact for the recorded configuration");
}

/// Compact run-length display of v3 chunk widths: `8×12 4×3` instead of
/// fifteen numbers.
fn fmt_widths(widths: &[u8]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < widths.len() {
        let w = widths[i];
        let mut n = 1;
        while i + n < widths.len() && widths[i + n] == w {
            n += 1;
        }
        parts.push(format!("{w}×{n}"));
        i += n;
    }
    parts.join(" ")
}

/// Wire-format summary of a single blob file: version, per-entry layout
/// and (for v3 diff batches) the per-chunk bit widths the precision
/// policy chose, plus the value-plane compression ratio. Exit code 1 on a
/// CRC mismatch or any other decode failure — `inspect` doubles as a
/// point validator for one blob.
fn cmd_inspect(path: &str) {
    let data = or_die("read blob", std::fs::read(path));
    if data.len() < 4 {
        eprintln!("{path}: too short to carry a magic number");
        exit(1);
    }
    match &data[..4] {
        m if m == codec::MAGIC_DIFF => {
            let info = match codec::inspect_diff_batch(&data) {
                Ok(info) => info,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    exit(1);
                }
            };
            out!(
                "diff batch (format v{}): {} entries, {}",
                info.version,
                info.entries.len(),
                fmt_bytes(info.encoded_len)
            );
            for e in &info.entries {
                let widths = if e.chunk_widths.is_empty() {
                    String::new()
                } else {
                    format!("  chunk bits: {}", fmt_widths(&e.chunk_widths))
                };
                out!(
                    "  iter {:>8}  {:<6} {:>8}/{} values{}",
                    e.iteration,
                    e.repr,
                    e.stored_values,
                    e.dense_len,
                    widths
                );
            }
            // Ratio of the blob against the same blob with a raw-f32 value
            // plane — what the v3 quantized codec saves end to end.
            let raw_equiv =
                (info.encoded_len - info.value_bytes).saturating_add(info.raw_value_bytes);
            out!(
                "value plane: {} stored, {} as raw f32  (blob is {:.2}x raw)",
                fmt_bytes(info.value_bytes),
                fmt_bytes(info.raw_value_bytes),
                info.encoded_len as f64 / raw_equiv as f64
            );
        }
        m if m == codec::MAGIC_FULL => {
            let fc = match codec::decode_full_checkpoint(&data) {
                Ok(fc) => fc,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    exit(1);
                }
            };
            out!(
                "full checkpoint (format v{}): iter {}, {} params, {}",
                codec::FULL_VERSION_V2,
                fc.state.iteration,
                fc.state.num_params(),
                fmt_bytes(data.len())
            );
            let opt = |present: bool| if present { "present" } else { "absent" };
            out!(
                "aux: residual={} compressor={} rng-cursor={} quant-policy={}",
                opt(fc.aux.residual.is_some()),
                match fc.aux.compressor {
                    Some(c) => format!("{c:?}"),
                    None => "absent".into(),
                },
                opt(fc.aux.rng.is_some()),
                match fc.aux.quant {
                    Some(q) => format!("{}bit (streak {})", q.bits, q.streak),
                    None => "absent".into(),
                },
            );
        }
        _ => {
            eprintln!("{path}: not a LowDiff blob (unknown magic)");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("list") => cmd_list(args.get(2).map(String::as_str).unwrap_or_else(|| usage())),
        Some("validate") => {
            cmd_validate(args.get(2).map(String::as_str).unwrap_or_else(|| usage()))
        }
        Some("health") => cmd_health(args.get(2).map(String::as_str).unwrap_or_else(|| usage())),
        Some("resume-info") => {
            cmd_resume_info(args.get(2).map(String::as_str).unwrap_or_else(|| usage()))
        }
        Some("recover") => {
            let dir = args.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let mut shards = 1usize;
            let mut out = None;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--shards" => {
                        shards = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--out" => {
                        out = Some(
                            args.get(i + 1)
                                .map(String::as_str)
                                .unwrap_or_else(|| usage()),
                        );
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            cmd_recover(dir, shards, out);
        }
        Some("gc") => {
            let dir = args.get(2).map(String::as_str).unwrap_or_else(|| usage());
            if args.get(3).map(String::as_str) != Some("--keep-from") {
                usage();
            }
            let keep: u64 = args
                .get(4)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            cmd_gc(dir, keep);
        }
        Some("inspect") => cmd_inspect(args.get(2).map(String::as_str).unwrap_or_else(|| usage())),
        Some("cluster") => {
            let addr = args.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let shutdown = match args.get(3).map(String::as_str) {
                None => false,
                Some("shutdown") => true,
                Some(_) => usage(),
            };
            cmd_cluster(addr, shutdown);
        }
        _ => usage(),
    }
}

/// Query a running coordinator: membership, epoch, last sealed global
/// checkpoint. With `shutdown`, ask the coordinator to stop instead.
fn cmd_cluster(addr: &str, shutdown: bool) {
    use lowdiff_comm::wire::{CoordClient, Msg};
    let mut client = or_die(
        "cluster connect",
        CoordClient::connect(addr, std::time::Duration::from_secs(5)),
    );
    if shutdown {
        match or_die("cluster shutdown", client.rpc(&Msg::Shutdown)) {
            Msg::Ok => out!("coordinator at {addr} shutting down"),
            other => {
                eprintln!("unexpected shutdown reply: {other:?}");
                exit(1);
            }
        }
        return;
    }
    match or_die("cluster status", client.rpc(&Msg::Status)) {
        Msg::StatusReport {
            epoch,
            world_size,
            members,
            last_global,
        } => {
            out!("coordinator {addr}");
            out!("  epoch              {epoch}");
            out!(
                "  world              {}/{} ranks registered",
                members.len(),
                world_size
            );
            out!(
                "  last global seal   {}",
                last_global.map_or("none".to_string(), |i| format!("iteration {i}"))
            );
            for m in &members {
                out!(
                    "  rank {:>3}  {}  sealed={}  last-seen={}ms",
                    m.rank,
                    if m.alive { "alive" } else { "DEAD " },
                    m.sealed.map_or("none".to_string(), |i| i.to_string()),
                    m.last_seen_ms,
                );
            }
            if (members.iter().filter(|m| m.alive).count() as u32) < world_size {
                exit(3); // degraded membership, like `health`'s broken-chain code
            }
        }
        other => {
            eprintln!("unexpected status reply: {other:?}");
            exit(1);
        }
    }
}
