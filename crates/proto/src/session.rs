//! The per-connection session state machine.
//!
//! A session accumulates the inputs of one rewriting run — binary, options,
//! reserved segments, disassembly info, patch requests — and hands them to
//! the in-process [`e9patch::Rewriter`] on `emit`. Buffering `patch`
//! commands until `emit` is what preserves the paper's S1 semantics: the
//! planner always sees the complete batch and processes it in reverse
//! address order, so a streaming frontend cannot perturb tactic selection
//! by message timing.
//!
//! State ordering enforced (violations are [`code::STATE`] errors):
//!
//! ```text
//! version → binary → {option|reserve|instruction|patch}* → emit
//! ```
//!
//! `option` and `reserve` are also legal between `version` and `binary`.
//! After `emit` the session stays usable — more patches or option changes
//! followed by another `emit` re-run the rewrite over the full batch.

use crate::cachekey;
use crate::msg::{code, CacheAction, CacheDisposition, CacheStatsReply, Command, EmitReply,
                 HealthReply, HookReply, RpcError, WireMapping, PROTOCOL_VERSION};
use crate::json::{obj, Json};
use crate::server::ShedCounters;
use e9cache::{Cache, Entry, Hit};
use e9patch::planner::AllocPolicy;
use e9patch::{ExtraSegment, PatchRequest, RewriteConfig, Rewriter};
use e9x86::insn::Insn;
use std::sync::Arc;

/// Per-session resource quotas. One hostile client must not be able to
/// grow a session's buffers without bound: every intake command is checked
/// against these caps and rejected with [`code::LIMIT`] when exceeded —
/// the session itself stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimits {
    /// Largest accepted input binary, in bytes.
    pub max_binary_bytes: usize,
    /// Most `instruction` declarations per session.
    pub max_insns: usize,
    /// Most buffered `patch` requests per session.
    pub max_patches: usize,
    /// Most `reserve` segments per session.
    pub max_extra_segments: usize,
    /// Combined size of all `reserve` segment contents, in bytes.
    pub max_extra_bytes: usize,
}

impl Default for SessionLimits {
    fn default() -> SessionLimits {
        SessionLimits {
            max_binary_bytes: 256 << 20,
            max_insns: 4_000_000,
            max_patches: 1_000_000,
            max_extra_segments: 64,
            max_extra_bytes: 256 << 20,
        }
    }
}

/// One protocol session (one connection's worth of rewriter state).
#[derive(Debug)]
pub struct Session {
    version: Option<u64>,
    binary: Option<Vec<u8>>,
    /// Tree digest of `binary`, computed at most once per session —
    /// verified at intake when the client sent one, or lazily at the
    /// first cache-engaged `emit` otherwise.
    binary_digest: Option<e9cache::Digest>,
    config: RewriteConfig,
    insns: Vec<Insn>,
    extra: Vec<ExtraSegment>,
    extra_bytes: usize,
    patches: Vec<PatchRequest>,
    limits: SessionLimits,
    shutdown: bool,
    /// Shared rewrite cache (one per server, not per session).
    cache: Option<Arc<Cache>>,
    /// Serving core reported by `health` (`in-process` when no server
    /// loop owns this session).
    serving_mode: &'static str,
    /// Shared load-shedding counters (one per server), when served.
    shed: Option<Arc<ShedCounters>>,
}

impl Default for Session {
    fn default() -> Session {
        Session::with_limits(SessionLimits::default())
    }
}

impl Session {
    /// A fresh session with the default rewriter configuration.
    pub fn new() -> Session {
        Session::default()
    }

    /// A fresh session with explicit resource quotas.
    pub fn with_limits(limits: SessionLimits) -> Session {
        Session {
            version: None,
            binary: None,
            binary_digest: None,
            config: RewriteConfig::default(),
            insns: Vec::new(),
            extra: Vec::new(),
            extra_bytes: 0,
            patches: Vec::new(),
            limits,
            shutdown: false,
            cache: None,
            serving_mode: "in-process",
            shed: None,
        }
    }

    /// Attach a rewrite cache. The daemon passes one shared [`Arc`] to
    /// every connection's session, so all clients pool their artifacts.
    pub fn set_cache(&mut self, cache: Option<Arc<Cache>>) {
        self.cache = cache;
    }

    /// Attach the serving-core identity and shared shed counters that the
    /// `health` command reports. Server loops call this right after
    /// construction; an unserved session reports `in-process` and zeros.
    pub fn set_health(&mut self, serving_mode: &'static str, shed: Arc<ShedCounters>) {
        self.serving_mode = serving_mode;
        self.shed = Some(shed);
    }

    fn over_limit(what: &str, cap: usize) -> RpcError {
        RpcError::new(code::LIMIT, format!("session quota exceeded: {what} (max {cap})"))
    }

    /// Whether a `shutdown` command has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Handle one command, returning the `result` payload.
    ///
    /// # Errors
    ///
    /// Protocol-state violations, invalid parameters and rewrite failures,
    /// each with its [`code`] constant.
    pub fn handle(&mut self, cmd: Command) -> Result<Json, RpcError> {
        // Everything except version negotiation requires it done first —
        // except `health`, which must work against a daemon an operator
        // cannot (or does not want to) handshake with.
        if self.version.is_none() && !matches!(cmd, Command::Version { .. } | Command::Health) {
            return Err(RpcError::state("version not negotiated"));
        }
        match cmd {
            Command::Version { version } => self.version_cmd(version),
            Command::Binary { bytes, digest } => self.binary_cmd(bytes, digest),
            Command::Option { name, value } => self.option_cmd(&name, &value),
            Command::Reserve {
                vaddr,
                bytes,
                exec,
                write,
            } => {
                if self.extra.len() >= self.limits.max_extra_segments {
                    return Err(Self::over_limit(
                        "reserve segments",
                        self.limits.max_extra_segments,
                    ));
                }
                if self.extra_bytes.saturating_add(bytes.len()) > self.limits.max_extra_bytes {
                    return Err(Self::over_limit("reserve bytes", self.limits.max_extra_bytes));
                }
                self.extra_bytes += bytes.len();
                self.extra.push(ExtraSegment {
                    vaddr,
                    bytes,
                    exec,
                    write,
                });
                Ok(Json::Obj(Vec::new()))
            }
            Command::Instruction { addr, bytes } => self.instruction_cmd(addr, &bytes),
            Command::Patch { addr, template } => {
                if self.binary.is_none() {
                    return Err(RpcError::state("patch before binary"));
                }
                if self.patches.len() >= self.limits.max_patches {
                    return Err(Self::over_limit("patches", self.limits.max_patches));
                }
                self.patches.push(PatchRequest { addr, template });
                Ok(Json::Obj(Vec::new()))
            }
            Command::Hook {
                funcs,
                addrs,
                call_original,
                payload,
            } => self.hook_cmd(e9hook::HookSpec {
                funcs,
                addrs,
                call_original,
                payload,
            }),
            Command::Emit => self.emit_cmd(),
            Command::Cache { action } => self.cache_cmd(action),
            Command::Health => Ok(self.health_reply().to_json()),
            Command::Shutdown => {
                self.shutdown = true;
                Ok(Json::Obj(Vec::new()))
            }
        }
    }

    fn version_cmd(&mut self, version: u64) -> Result<Json, RpcError> {
        if self.version.is_some() {
            return Err(RpcError::state("version already negotiated"));
        }
        if version != PROTOCOL_VERSION {
            return Err(RpcError::new(
                code::VERSION,
                format!("unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"),
            ));
        }
        self.version = Some(version);
        Ok(obj(vec![
            ("version", Json::Int(PROTOCOL_VERSION as i128)),
            ("server", Json::Str("e9patchd".into())),
        ]))
    }

    fn binary_cmd(
        &mut self,
        bytes: Vec<u8>,
        digest: Option<e9cache::Digest>,
    ) -> Result<Json, RpcError> {
        if self.binary.is_some() {
            return Err(RpcError::state("binary already loaded"));
        }
        if bytes.len() > self.limits.max_binary_bytes {
            return Err(Self::over_limit("binary bytes", self.limits.max_binary_bytes));
        }
        // Validate eagerly so the client hears about a bad image now, not
        // at emit time.
        let elf = e9elf::Elf::parse(&bytes)
            .map_err(|e| RpcError::new(code::REWRITE, format!("unparseable ELF: {e}")))?;
        if let Some(claimed) = digest {
            // Verify, never trust: the cache is shared across every
            // client of this daemon, so an unchecked digest would let one
            // client poison another's cache keys. The recompute here is
            // the session's ONE hash of the input — every later emit
            // reuses it.
            let actual = e9cache::tree::tree_digest(&bytes, 1);
            if actual != claimed {
                return Err(RpcError::invalid_params(format!(
                    "binary digest mismatch: claimed {} but input hashes to {}",
                    e9cache::sha256::hex(&claimed),
                    e9cache::sha256::hex(&actual),
                )));
            }
            self.binary_digest = Some(actual);
        }
        let reply = obj(vec![
            ("size", Json::Int(bytes.len() as i128)),
            ("entry", Json::Int(elf.entry() as i128)),
        ]);
        self.binary = Some(bytes);
        Ok(reply)
    }

    fn option_cmd(&mut self, name: &str, value: &str) -> Result<Json, RpcError> {
        let parse_bool = || -> Result<bool, RpcError> {
            match value {
                "true" => Ok(true),
                "false" => Ok(false),
                _ => Err(RpcError::invalid_params(format!(
                    "option {name}: want true|false, got {value:?}"
                ))),
            }
        };
        match name {
            "t1" => self.config.tactics.t1 = parse_bool()?,
            "t2" => self.config.tactics.t2 = parse_bool()?,
            "t3" => self.config.tactics.t3 = parse_bool()?,
            "b0" => self.config.b0_fallback = parse_bool()?,
            "grouping" => self.config.grouping = parse_bool()?,
            "granularity" => {
                let m: u64 = value.parse().ok().filter(|&m| m >= 1).ok_or_else(|| {
                    RpcError::invalid_params(format!(
                        "option granularity: want an integer >= 1, got {value:?}"
                    ))
                })?;
                self.config.granularity = m;
            }
            "alloc" => {
                self.config.alloc_policy = match value {
                    "low" => AllocPolicy::FirstFitLow,
                    "high" => AllocPolicy::FirstFitHigh,
                    _ => {
                        return Err(RpcError::invalid_params(format!(
                            "option alloc: want low|high, got {value:?}"
                        )))
                    }
                };
            }
            _ => {
                return Err(RpcError::invalid_params(format!(
                    "unknown option {name:?}"
                )))
            }
        }
        Ok(Json::Obj(Vec::new()))
    }

    fn instruction_cmd(&mut self, addr: u64, bytes: &[u8]) -> Result<Json, RpcError> {
        if self.binary.is_none() {
            return Err(RpcError::state("instruction before binary"));
        }
        if self.insns.len() >= self.limits.max_insns {
            return Err(Self::over_limit("instructions", self.limits.max_insns));
        }
        let insn = e9x86::decode::decode(bytes, addr)
            .map_err(|e| RpcError::new(code::DECODE, format!("{addr:#x}: {e:?}")))?;
        if insn.len() != bytes.len() {
            return Err(RpcError::new(
                code::DECODE,
                format!(
                    "{addr:#x}: {} byte(s) sent but instruction is {}",
                    bytes.len(),
                    insn.len()
                ),
            ));
        }
        self.insns.push(insn);
        Ok(Json::Obj(Vec::new()))
    }

    /// Plan a hook batch server-side and buffer its segments and patches
    /// exactly as if the client had streamed them: a following `emit`
    /// sees the identical batch (and derives the identical cache key) a
    /// locally-planning client would have produced.
    fn hook_cmd(&mut self, spec: e9hook::HookSpec) -> Result<Json, RpcError> {
        let Some(binary) = self.binary.as_deref() else {
            return Err(RpcError::state("hook before binary"));
        };
        let plan = e9hook::plan_hooks(binary, &self.insns, &spec)
            .map_err(|e| RpcError::new(code::REWRITE, e.to_string()))?;
        // Admit the whole plan or none of it: quota checks run before any
        // buffer grows, so a rejected hook leaves the session unchanged.
        if self.extra.len() + plan.extra.len() > self.limits.max_extra_segments {
            return Err(Self::over_limit(
                "reserve segments",
                self.limits.max_extra_segments,
            ));
        }
        let plan_bytes: usize = plan.extra.iter().map(|s| s.bytes.len()).sum();
        if self.extra_bytes.saturating_add(plan_bytes) > self.limits.max_extra_bytes {
            return Err(Self::over_limit("reserve bytes", self.limits.max_extra_bytes));
        }
        if self.patches.len() + plan.requests.len() > self.limits.max_patches {
            return Err(Self::over_limit("patches", self.limits.max_patches));
        }
        self.extra_bytes += plan_bytes;
        self.extra.extend(plan.extra);
        self.patches.extend(plan.requests);
        Ok(HookReply {
            hooks: plan.hooks,
            counters_addr: plan.counters_addr,
            manifest_addr: plan.manifest_addr,
        }
        .to_json())
    }

    fn emit_cmd(&mut self) -> Result<Json, RpcError> {
        if self.binary.is_none() {
            return Err(RpcError::state("emit before binary"));
        }
        let Some(cache) = self.cache.clone() else {
            return self.emit_cold().map(|r| r.to_json());
        };
        let binary_len = self.binary.as_ref().map_or(0, Vec::len) as u64;
        if cache.should_bypass(binary_len) {
            // Below the break-even size the rewrite is cheaper than
            // keying it, so skip the cache entirely. Failures propagate
            // unstored — a negative entry would pay the keying cost the
            // bypass exists to avoid.
            let mut reply = self.emit_cold()?;
            reply.cache = CacheDisposition::Bypass;
            return Ok(reply.to_json());
        }
        // Digest-once: hash the input at the first engaged emit (unless
        // the client already sent a verified digest with `binary`), then
        // reuse the 32-byte digest for every later keying.
        if self.binary_digest.is_none() {
            let binary = self.binary.as_deref().expect("checked above");
            self.binary_digest = Some(e9cache::tree::tree_digest(binary, 1));
        }
        let bin_digest = self.binary_digest.expect("just ensured");
        let key = cachekey::rewrite_key_from_digest(
            &bin_digest,
            &self.insns,
            &self.extra,
            &self.patches,
            &self.config,
        );
        let digest = e9cache::sha256::hex(&key);
        match cache.lookup(&key) {
            Some(Hit::Payload(blob)) => {
                // The stored payload is the compact binary reply of the
                // cold run, handed back as a zero-copy view; decode and
                // stamp the hit disposition. An undecodable payload
                // (encoder/decoder drift, which FORMAT_VERSION should
                // preclude) falls through cold.
                if let Ok(mut reply) = EmitReply::decode_bin(&blob) {
                    reply.cache = CacheDisposition::Hit;
                    reply.digest = Some(digest);
                    return Ok(reply.to_json());
                }
            }
            Some(Hit::Negative { code, message }) => {
                // Known-failing request: replay the original typed error
                // without re-running the rewriter.
                return Err(RpcError::new(code, message));
            }
            None => {}
        }
        match self.emit_cold() {
            Ok(mut reply) => {
                // The compact encoding carries neither disposition nor
                // digest — the server stamps both per response — so the
                // stored artifact is stamp-order independent.
                cache.put(&key, &Entry::Ok(reply.encode_bin()));
                reply.cache = CacheDisposition::Miss;
                reply.digest = Some(digest);
                Ok(reply.to_json())
            }
            Err(e) => {
                // Rewrite failures are deterministic too — cache them as
                // negative entries. State/limit errors are about *this*
                // session, not the job, and are not cached.
                if e.code == code::REWRITE {
                    cache.put(
                        &key,
                        &Entry::Negative {
                            code: e.code,
                            message: e.message.clone(),
                        },
                    );
                }
                Err(e)
            }
        }
    }

    /// The uncached rewrite: run the planner over the buffered batch.
    fn emit_cold(&self) -> Result<EmitReply, RpcError> {
        let Some(binary) = self.binary.as_deref() else {
            return Err(RpcError::state("emit before binary"));
        };
        let out = Rewriter::new(self.config)
            .rewrite(binary, &self.insns, &self.patches, &self.extra)
            .map_err(|e| RpcError::new(code::REWRITE, e.to_string()))?;
        Ok(EmitReply {
            binary: out.binary,
            stats: out.stats,
            size: out.size,
            loader_addr: out.loader_addr,
            trap_count: out.trap_count as u64,
            reports: out.reports,
            mappings: out
                .mappings
                .iter()
                .map(|m| WireMapping {
                    vaddr: m.vaddr,
                    file_off: m.file_off,
                    len: m.len,
                })
                .collect(),
            cache: CacheDisposition::Off,
            digest: None,
        })
    }

    fn cache_cmd(&mut self, action: CacheAction) -> Result<Json, RpcError> {
        match action {
            CacheAction::Stats => {
                let reply = match &self.cache {
                    Some(c) => CacheStatsReply {
                        enabled: true,
                        disk: c.has_disk(),
                        stats: c.stats(),
                    },
                    None => CacheStatsReply::default(),
                };
                Ok(reply.to_json())
            }
            CacheAction::Clear => {
                let (cleared, disk_removed) = match &self.cache {
                    Some(c) => (true, c.clear()),
                    None => (false, 0),
                };
                Ok(obj(vec![
                    ("cleared", Json::Bool(cleared)),
                    ("disk_removed", Json::Int(disk_removed as i128)),
                ]))
            }
        }
    }

    /// Assemble the `health` snapshot: serving core, shed counters,
    /// fault-injection state and the cache/breaker counters.
    fn health_reply(&self) -> HealthReply {
        let cache = match &self.cache {
            Some(c) => CacheStatsReply {
                enabled: true,
                disk: c.has_disk(),
                stats: c.stats(),
            },
            None => CacheStatsReply::default(),
        };
        let (shed_admission, shed_busy) = self
            .shed
            .as_ref()
            .map(|s| s.snapshot())
            .unwrap_or((0, 0));
        HealthReply {
            serving_mode: self.serving_mode.to_string(),
            shed_admission,
            shed_busy,
            faults_enabled: e9failpt::is_enabled(),
            fault_spec: e9failpt::active_spec().unwrap_or_default(),
            faults_injected: e9failpt::injected_total(),
            cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e9patch::Template;

    /// A tiny non-PIE binary (Figure-1 shape) plus its code bytes.
    fn tiny() -> (Vec<u8>, Vec<u8>, u64) {
        let code = vec![
            0x48, 0x89, 0x03, // mov %rax,(%rbx)
            0x48, 0x83, 0xC0, 0x20, // add $32,%rax
            0xC3, // ret
            0x0F, 0x1F, 0x44, 0x00, 0x00, // nop padding
            0x0F, 0x1F, 0x44, 0x00, 0x00,
        ];
        let mut b = e9elf::build::ElfBuilder::exec(0x400000);
        b.text(code.clone(), 0x401000);
        b.entry(0x401000);
        (b.build(), code, 0x401000)
    }

    fn drive(session: &mut Session, cmds: Vec<Command>) -> Vec<Result<Json, RpcError>> {
        cmds.into_iter().map(|c| session.handle(c)).collect()
    }

    #[test]
    fn state_machine_orders_commands() {
        let mut s = Session::new();
        // Anything before version is a state error.
        let e = s.handle(Command::Emit).unwrap_err();
        assert_eq!(e.code, code::STATE);
        // Wrong versions are rejected and the session stays un-negotiated.
        // Version 1 still had the `jobs` option, so its clients fail here
        // rather than mid-batch.
        for stale in [1, 99] {
            let e = s.handle(Command::Version { version: stale }).unwrap_err();
            assert_eq!(e.code, code::VERSION);
            let want = format!("unsupported protocol version {stale}");
            assert!(e.message.contains(&want), "{}", e.message);
        }
        assert!(s.handle(Command::Version { version: PROTOCOL_VERSION }).is_ok());
        // Double negotiation is a state error.
        let e = s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap_err();
        assert_eq!(e.code, code::STATE);
        // Instruction/patch before binary are state errors.
        let e = s
            .handle(Command::Instruction {
                addr: 0x401000,
                bytes: vec![0xC3],
            })
            .unwrap_err();
        assert_eq!(e.code, code::STATE);
        let e = s
            .handle(Command::Patch {
                addr: 0x401000,
                template: Template::Empty,
            })
            .unwrap_err();
        assert_eq!(e.code, code::STATE);
    }

    #[test]
    fn full_session_emits_patched_binary() {
        let (bin, code, base) = tiny();
        let disasm = e9x86::decode::linear_sweep(&code, base);
        let mut s = Session::new();
        let mut cmds = vec![
            Command::Version { version: PROTOCOL_VERSION },
            Command::Binary { bytes: bin.clone(), digest: None },
        ];
        for i in &disasm {
            cmds.push(Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            });
        }
        cmds.push(Command::Patch {
            addr: base,
            template: Template::Empty,
        });
        for r in drive(&mut s, cmds) {
            r.expect("setup command failed");
        }
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.stats.succeeded(), 1);
        // Byte-identical to the in-process path with the same inputs.
        let direct = Rewriter::new(RewriteConfig::default())
            .rewrite(
                &bin,
                &disasm,
                &[PatchRequest {
                    addr: base,
                    template: Template::Empty,
                }],
                &[],
            )
            .unwrap();
        assert_eq!(reply.binary, direct.binary);
        assert_eq!(reply.stats, direct.stats);
        assert_eq!(reply.loader_addr, direct.loader_addr);
    }

    #[test]
    fn instruction_order_does_not_change_the_emit_reply() {
        // `instruction` lines may arrive in any order; the rewriter
        // indexes them by address, so the reply bytes are the same.
        let prog = e9synth::generate(&e9synth::Profile::tiny("insn-order", false));
        let emit = |insns: &[Insn]| {
            let mut s = Session::new();
            s.handle(Command::Version {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
            s.handle(Command::Binary {
                bytes: prog.binary.clone(),
                digest: None,
            })
            .unwrap();
            for i in insns {
                s.handle(Command::Instruction {
                    addr: i.addr,
                    bytes: i.bytes().to_vec(),
                })
                .unwrap();
            }
            for i in prog.disasm.iter().filter(|i| i.kind.is_jump()) {
                s.handle(Command::Patch {
                    addr: i.addr,
                    template: Template::Empty,
                })
                .unwrap();
            }
            s.handle(Command::Emit).unwrap()
        };
        let in_order = emit(&prog.disasm);
        let reversed: Vec<Insn> = prog.disasm.iter().rev().copied().collect();
        assert_eq!(emit(&reversed).serialize(), in_order.serialize());
        let reply = EmitReply::from_json(&in_order).unwrap();
        assert!(reply.stats.succeeded() > 0, "{:?}", reply.stats);
    }

    #[test]
    fn options_steer_the_config() {
        let (bin, code, base) = tiny();
        let disasm = e9x86::decode::linear_sweep(&code, base);
        let mut s = Session::new();
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        for (n, v) in [("t1", "false"), ("t2", "false"), ("t3", "false"), ("granularity", "4")] {
            s.handle(Command::Option {
                name: n.into(),
                value: v.into(),
            })
            .unwrap();
        }
        s.handle(Command::Binary { bytes: bin, digest: None }).unwrap();
        s.handle(Command::Instruction {
            addr: base,
            bytes: disasm[0].bytes().to_vec(),
        })
        .unwrap();
        s.handle(Command::Patch {
            addr: base,
            template: Template::Empty,
        })
        .unwrap();
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        // Base-only tactics cannot pun this low non-PIE address: failed.
        assert_eq!(reply.stats.failed, 1);
        assert_eq!(reply.size.granularity, 4);
        // Unknown options and bad values are invalid-params.
        let e = s
            .handle(Command::Option {
                name: "turbo".into(),
                value: "on".into(),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
        let e = s
            .handle(Command::Option {
                name: "granularity".into(),
                value: "0".into(),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
    }

    #[test]
    fn jobs_option_is_unknown() {
        let mut s = Session::new();
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        let e = s
            .handle(Command::Option {
                name: "jobs".into(),
                value: "4".into(),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
        assert!(e.message.contains("unknown option \"jobs\""), "{}", e.message);
    }

    #[test]
    fn bad_instruction_bytes_are_decode_errors() {
        let (bin, _, _) = tiny();
        let mut s = Session::new();
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        s.handle(Command::Binary { bytes: bin, digest: None }).unwrap();
        // Truncated instruction (mov needs 3 bytes).
        let e = s
            .handle(Command::Instruction {
                addr: 0x401000,
                bytes: vec![0x48, 0x89],
            })
            .unwrap_err();
        assert_eq!(e.code, code::DECODE);
        // Trailing bytes beyond the decoded length.
        let e = s
            .handle(Command::Instruction {
                addr: 0x401000,
                bytes: vec![0xC3, 0x90],
            })
            .unwrap_err();
        assert_eq!(e.code, code::DECODE);
    }

    /// A fully-driven session up to (but excluding) `emit`, with the
    /// tiny workload patched at its first instruction.
    fn primed_session(cache: Option<Arc<Cache>>) -> Session {
        let (bin, code, base) = tiny();
        let disasm = e9x86::decode::linear_sweep(&code, base);
        let mut s = Session::new();
        s.set_cache(cache);
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        s.handle(Command::Binary { bytes: bin, digest: None }).unwrap();
        for i in &disasm {
            s.handle(Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            })
            .unwrap();
        }
        s.handle(Command::Patch {
            addr: base,
            template: Template::Empty,
        })
        .unwrap();
        s
    }

    #[test]
    fn emit_without_cache_reports_off() {
        let mut s = primed_session(None);
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, crate::msg::CacheDisposition::Off);
        assert_eq!(reply.digest, None);
    }

    #[test]
    fn emit_misses_then_hits_byte_identically() {
        use crate::msg::CacheDisposition;
        let cache = Arc::new(Cache::in_memory_no_bypass());
        // Two *sessions* sharing one cache, like two daemon connections.
        let mut a = primed_session(Some(Arc::clone(&cache)));
        let cold = EmitReply::from_json(&a.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(cold.cache, CacheDisposition::Miss);
        let digest = cold.digest.clone().expect("miss carries the digest");

        let mut b = primed_session(Some(Arc::clone(&cache)));
        let warm = EmitReply::from_json(&b.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(warm.cache, CacheDisposition::Hit);
        assert_eq!(warm.digest, Some(digest));
        // The cache-hit invariant: bytes identical to the cold rewrite.
        assert_eq!(warm.binary, cold.binary);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.reports, cold.reports);
        assert_eq!(warm.mappings, cold.mappings);

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
    }

    #[test]
    fn config_change_changes_the_key() {
        let cache = Arc::new(Cache::in_memory_no_bypass());
        let mut a = primed_session(Some(Arc::clone(&cache)));
        a.handle(Command::Emit).unwrap();
        // Same job but different granularity: a distinct cache entry.
        let mut b = primed_session(Some(Arc::clone(&cache)));
        b.handle(Command::Option {
            name: "granularity".into(),
            value: "4".into(),
        })
        .unwrap();
        let reply = EmitReply::from_json(&b.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, crate::msg::CacheDisposition::Miss);
        assert_eq!(cache.stats().stores, 2);
    }

    #[test]
    fn failing_rewrite_is_cached_negatively() {
        let (bin, _, _) = tiny();
        let cache = Arc::new(Cache::in_memory_no_bypass());
        let mut s = Session::new();
        s.set_cache(Some(Arc::clone(&cache)));
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        s.handle(Command::Binary { bytes: bin, digest: None }).unwrap();
        // A patch at an address with no declared instruction fails the
        // rewrite deterministically.
        s.handle(Command::Patch {
            addr: 0x401000,
            template: Template::Empty,
        })
        .unwrap();
        let cold = s.handle(Command::Emit).unwrap_err();
        assert_eq!(cold.code, code::REWRITE);
        let warm = s.handle(Command::Emit).unwrap_err();
        // Replayed typed error, served from the negative entry.
        assert_eq!(warm, cold);
        assert_eq!(cache.stats().negative_hits, 1);
    }

    #[test]
    fn tiny_emits_bypass_the_cache_by_default() {
        use crate::msg::CacheDisposition;
        // The default threshold (128 KiB) dwarfs the tiny workload, so a
        // session with an un-tuned cache must skip keying entirely.
        let cache = Arc::new(Cache::in_memory());
        let mut s = primed_session(Some(Arc::clone(&cache)));
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, CacheDisposition::Bypass);
        assert_eq!(reply.digest, None);
        let stats = cache.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn bypassed_failures_are_not_cached_negatively() {
        let (bin, _, _) = tiny();
        let cache = Arc::new(Cache::in_memory());
        let mut s = Session::new();
        s.set_cache(Some(Arc::clone(&cache)));
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        s.handle(Command::Binary { bytes: bin, digest: None }).unwrap();
        s.handle(Command::Patch {
            addr: 0x401000,
            template: Template::Empty,
        })
        .unwrap();
        // Both emits fail cold: below the threshold nothing is keyed, so
        // nothing — not even the failure — is stored.
        let first = s.handle(Command::Emit).unwrap_err();
        let second = s.handle(Command::Emit).unwrap_err();
        assert_eq!(first.code, code::REWRITE);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.negative_hits, 0);
        assert_eq!(stats.bypasses, 2);
    }

    #[test]
    fn binary_digest_is_verified_at_intake() {
        let (bin, _, _) = tiny();
        let mut s = Session::new();
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        let wrong = e9cache::digest(b"not the binary");
        let e = s
            .handle(Command::Binary {
                bytes: bin.clone(),
                digest: Some(wrong),
            })
            .unwrap_err();
        assert_eq!(e.code, code::INVALID_PARAMS);
        assert!(e.message.contains("digest mismatch"), "{}", e.message);
        // The rejected intake left no binary behind; the correct digest
        // is accepted.
        let right = e9cache::tree::tree_digest(&bin, 1);
        s.handle(Command::Binary {
            bytes: bin,
            digest: Some(right),
        })
        .unwrap();
    }

    #[test]
    fn cache_command_reports_and_clears() {
        use crate::msg::{CacheAction, CacheStatsReply};
        // Without a cache: disabled, zero counters, clear is a no-op.
        let mut bare = Session::new();
        bare.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        let r = bare
            .handle(Command::Cache {
                action: CacheAction::Stats,
            })
            .unwrap();
        let stats = CacheStatsReply::from_json(&r).unwrap();
        assert!(!stats.enabled);

        let cache = Arc::new(Cache::in_memory_no_bypass());
        let mut s = primed_session(Some(Arc::clone(&cache)));
        s.handle(Command::Emit).unwrap();
        let r = s
            .handle(Command::Cache {
                action: CacheAction::Stats,
            })
            .unwrap();
        let stats = CacheStatsReply::from_json(&r).unwrap();
        assert!(stats.enabled);
        assert!(!stats.disk);
        assert_eq!(stats.stats.stores, 1);
        let r = s
            .handle(Command::Cache {
                action: CacheAction::Clear,
            })
            .unwrap();
        assert_eq!(r.get("cleared").and_then(Json::as_bool), Some(true));
        // Cleared: the same emit misses again.
        let reply = EmitReply::from_json(&s.handle(Command::Emit).unwrap()).unwrap();
        assert_eq!(reply.cache, crate::msg::CacheDisposition::Miss);
    }

    #[test]
    fn health_is_allowed_pre_version_and_reports_state() {
        use crate::msg::HealthReply;
        use crate::server::ShedCounters;

        // No version negotiated yet: health must still answer (it is the
        // one command an operator can always issue against a live daemon).
        let mut s = Session::new();
        let h = HealthReply::from_json(&s.handle(Command::Health).unwrap()).unwrap();
        assert_eq!(h.serving_mode, "in-process");
        assert!(!h.cache.enabled);
        assert_eq!(h.shed_admission, 0);
        // Health does not substitute for negotiation: emit still gates.
        let e = s.handle(Command::Emit).unwrap_err();
        assert_eq!(e.code, code::STATE);

        // A daemon-shaped session reports its serving mode, shed
        // counters and cache tier state.
        let shed = Arc::new(ShedCounters::default());
        shed.admission.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        shed.busy.fetch_add(5, std::sync::atomic::Ordering::Relaxed);
        let mut d = Session::new();
        d.set_cache(Some(Arc::new(Cache::in_memory())));
        d.set_health("reactor", shed);
        let h = HealthReply::from_json(&d.handle(Command::Health).unwrap()).unwrap();
        assert_eq!(h.serving_mode, "reactor");
        assert!(h.cache.enabled);
        assert!(!h.cache.disk);
        assert_eq!((h.shed_admission, h.shed_busy), (3, 5));
        assert!(!h.cache.stats.disk_breaker_open);
    }

    #[test]
    fn bad_elf_rejected_at_binary_time() {
        let mut s = Session::new();
        s.handle(Command::Version { version: PROTOCOL_VERSION }).unwrap();
        let e = s
            .handle(Command::Binary {
                bytes: vec![0u8; 64],
                digest: None,
            })
            .unwrap_err();
        assert_eq!(e.code, code::REWRITE);
        // The session still has no binary: emit remains a state error.
        let e = s.handle(Command::Emit).unwrap_err();
        assert_eq!(e.code, code::STATE);
    }
}
