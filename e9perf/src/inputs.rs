//! Workload inputs: seeded synthetic Table-1 binaries, their set-up
//! timing, and the `e9vm` oracle the output checks use.

use crate::calib::Calib;
use crate::util::{median, row_seed};
use e9synth::{generate, Profile};
use e9x86::Insn;
use std::time::Instant;

/// One generated input binary.
pub struct Input {
    pub name: String,
    pub binary: Vec<u8>,
    pub disasm: Vec<Insn>,
    /// The program's own entry point (the patched binary's entry is the
    /// injected loader, which jumps here when it is done).
    pub entry: u64,
}

/// Scale of the Table-1 rows (paper `#Loc` / scale), as in `table1`.
pub const TABLE1_SCALE: u64 = e9synth::DEFAULT_SCALE;
/// Scale of the chrome row: ≈455k A1 sites, an 18 MiB binary.
pub const CHROME_SCALE: u64 = 10;
/// Scale used by `--tiny`: every row at its minimum size.
pub const TINY_SCALE: u64 = 5000;

fn reseed(mut profiles: Vec<Profile>, seed: u64) -> Vec<Profile> {
    for p in &mut profiles {
        p.seed = row_seed(seed, &p.name);
    }
    profiles
}

/// The 38 SPEC and system rows of Table 1, seeded from the workload
/// seed. `--tiny` shrinks the code, not the `.bss`, so gamess still
/// meets the emulator's segment cap.
pub fn table1_profiles(seed: u64, tiny: bool) -> Vec<Profile> {
    let scale = if tiny { TINY_SCALE } else { TABLE1_SCALE };
    let mut v = e9synth::spec_profiles(scale);
    v.extend(e9synth::system_profiles(scale));
    reseed(v, seed)
}

/// The Table-1 chrome row: PIE, data interleaved with code in `.text`.
pub fn chrome_profile(seed: u64, tiny: bool) -> Profile {
    let scale = if tiny { TINY_SCALE } else { CHROME_SCALE };
    let mut v = reseed(e9synth::browser_profiles(scale), seed);
    v.swap_remove(0)
}

fn generate_inputs(profiles: &[Profile]) -> Vec<Input> {
    profiles
        .iter()
        .map(|p| {
            let sb = generate(p);
            Input {
                name: p.name.clone(),
                binary: sb.binary,
                disasm: sb.disasm,
                entry: sb.entry,
            }
        })
        .collect()
}

/// SHA-256 over every input's name and bytes, in order.
pub fn digest(inputs: &[Input]) -> String {
    let mut h = e9cache::sha256::Sha256::new();
    for i in inputs {
        h.update(&(i.name.len() as u64).to_le_bytes());
        h.update(i.name.as_bytes());
        h.update(&(i.binary.len() as u64).to_le_bytes());
        h.update(&i.binary);
    }
    e9cache::sha256::hex(&h.finish())
}

/// Generated inputs plus how long generating them took.
pub struct Generated {
    pub inputs: Vec<Input>,
    pub digest: String,
    /// Median wall time of one full generation, ms.
    pub gen_ms: f64,
    /// Set when two generations of the same seed differed.
    pub nondeterministic: bool,
}

/// Generate `profiles` `reps` times (set-up is timed as a median, and
/// repeating it doubles as a determinism check), calibrating after each.
pub fn generate_timed(
    profiles: &[Profile],
    reps: usize,
    mut calib: Option<&mut Calib>,
) -> Generated {
    let mut times = Vec::new();
    let mut kept: Option<(Vec<Input>, String)> = None;
    let mut nondeterministic = false;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let inputs = generate_inputs(profiles);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(c) = calib.as_deref_mut() {
            c.after_op(times[times.len() - 1]);
        }
        let d = digest(&inputs);
        match &kept {
            Some((_, first)) => nondeterministic |= *first != d,
            None => kept = Some((inputs, d)),
        }
    }
    let (inputs, digest) = kept.expect("at least one generation");
    Generated {
        inputs,
        digest,
        gen_ms: median(&times),
        nondeterministic,
    }
}

/// Emulation cap, in cost units (as the `table1` generator).
const MAX_STEPS: u64 = 2_000_000_000;

pub struct Emulated {
    pub exit_code: i32,
    /// Steady-state cost: units spent after control first reached the
    /// program's own entry (the injected loader's mapping loop is a
    /// one-off and excluded, as in Table 1's Time% column).
    pub steps: u64,
    pub output: Vec<u8>,
}

/// Why an emulation check did not pass.
pub enum EmuError {
    /// `e9vm` refused to load the image.
    Load(String),
    /// The guest faulted or ran out of steps.
    Run(String),
}

/// Run `binary` under `e9vm`, counting steps from `entry` on.
pub fn emulate(binary: &[u8], entry: u64) -> Result<Emulated, EmuError> {
    let mut vm = e9vm::Vm::new();
    e9vm::load_elf(&mut vm, binary).map_err(|e| EmuError::Load(e.to_string()))?;
    while vm.cpu.rip != entry {
        vm.step().map_err(|e| EmuError::Run(e.to_string()))?;
        if vm.steps >= MAX_STEPS {
            return Err(EmuError::Run("loader never reached the entry".into()));
        }
    }
    let startup = vm.steps;
    let r = vm
        .run(MAX_STEPS)
        .map_err(|e| EmuError::Run(e.to_string()))?;
    Ok(Emulated {
        exit_code: r.exit_code,
        steps: r.steps - startup,
        output: r.output,
    })
}

/// Outcome of one patched-versus-original emulation check.
pub enum EmuCheck {
    /// Same output and exit code; steps of (original, patched).
    Same { orig_steps: u64, patched_steps: u64 },
    /// The oracle could not run (the original image did not load).
    LoadFailed(String),
    /// The patched program misbehaved or diverged.
    Wrong(String),
}

pub fn emu_check(original: &[u8], patched: &[u8], entry: u64) -> EmuCheck {
    let orig = match emulate(original, entry) {
        Ok(r) => r,
        Err(EmuError::Load(e)) => return EmuCheck::LoadFailed(format!("original: {e}")),
        Err(EmuError::Run(e)) => return EmuCheck::Wrong(format!("original did not run: {e}")),
    };
    // The original loaded, so a patched image that does not is the
    // rewriter's fault.
    let new = match emulate(patched, entry) {
        Ok(r) => r,
        Err(EmuError::Load(e)) => return EmuCheck::Wrong(format!("patched did not load: {e}")),
        Err(EmuError::Run(e)) => return EmuCheck::Wrong(format!("patched did not run: {e}")),
    };
    if new.output != orig.output || new.exit_code != orig.exit_code {
        return EmuCheck::Wrong(format!(
            "patched output/exit ({} bytes, {}) differs from original ({} bytes, {})",
            new.output.len(),
            new.exit_code,
            orig.output.len(),
            orig.exit_code
        ));
    }
    EmuCheck::Same {
        orig_steps: orig.steps,
        patched_steps: new.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_row(name: &str) -> Input {
        let p = table1_profiles(1, true)
            .into_iter()
            .find(|p| p.name == name)
            .expect("a Table-1 row");
        generate_inputs(&[p]).remove(0)
    }

    #[test]
    fn unloadable_patched_image_is_a_wrong_output() {
        let row = tiny_row("mcf");
        assert!(matches!(
            emu_check(&row.binary, &row.binary, row.entry),
            EmuCheck::Same { .. }
        ));
        assert!(matches!(
            emu_check(&row.binary, &row.binary[..64], row.entry),
            EmuCheck::Wrong(_)
        ));
    }

    #[test]
    fn unloadable_original_is_an_oracle_failure() {
        let row = tiny_row("gamess");
        assert!(matches!(
            emu_check(&row.binary, &row.binary, row.entry),
            EmuCheck::LoadFailed(_)
        ));
    }
}
