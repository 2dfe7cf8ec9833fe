//! The host fingerprint written into every result file. Results with
//! different fingerprint ids come from different hosts or builds and must
//! not be compared as if one were a regression of the other.

use std::path::Path;

pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub target_cpu: &'static str,
    pub simd: bool,
    pub rustc: &'static str,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: crate::nproc(),
            cpu_model,
            target_cpu: env!("PERFBENCH_TARGET_CPU"),
            simd: cfg!(feature = "simd"),
            rustc: env!("PERFBENCH_RUSTC"),
            git_commit: git_commit(Path::new(".git")).unwrap_or_else(|| "none".into()),
        }
    }

    /// FNV-1a over everything but the commit: two results are comparable
    /// exactly when their ids match.
    pub fn id(&self) -> String {
        let text = format!(
            "{}|{}|{}|{}|{}",
            self.nproc, self.cpu_model, self.target_cpu, self.simd, self.rustc
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        format!("{h:016x}")
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"id\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"target_cpu\": \"{}\", \
             \"simd\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
            self.id(),
            self.nproc,
            escape(&self.cpu_model),
            escape(self.target_cpu),
            self.simd,
            escape(self.rustc),
            escape(&self.git_commit)
        )
    }
}

/// The checked-out commit, read from the `.git` directory without running
/// git; `None` outside a git work tree.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

