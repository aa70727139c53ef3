//! Global HPCC benchmarks — the paper's Figures 8–11: HPL, MPI-FFT, PTRANS,
//! and MPI-RandomAccess, swept over socket counts in SN and VN modes.
//!
//! Problem sizes follow the HPCC rules (matrices sized to a fixed fraction
//! of total memory), communication volumes are exact, and the long-running
//! iterative structure is sampled: a fixed number of representative rounds
//! is simulated and the steady-state rate extrapolated (documented per
//! benchmark below).

use rand::Rng;
use xtsim_machine::{ExecMode, MachineSpec};
use xtsim_mpi::{simulate, CollectiveMode, Message};

use crate::util::{job, ranks_for_sockets};
use xtsim_kernels::lu::hpl_flops;
use xtsim_kernels::workmodel;

/// HPL (Figure 8): blocked right-looking LU over `sockets` sockets. The
/// factorization is sampled as `ROUNDS` panel steps carrying the full
/// communication volume (panel broadcasts) and the full compute volume.
/// Returns TFLOPS.
pub fn hpl(machine: &MachineSpec, mode: ExecMode, sockets: usize) -> f64 {
    const ROUNDS: usize = 32;
    let p = ranks_for_sockets(machine, mode, sockets);
    let mem_rank_bytes = machine.memory_per_rank_gb(mode) * 1e9;
    // HPCC sizing: the matrix fills ~80% of aggregate memory.
    let n = ((0.8 * p as f64 * mem_rank_bytes / 8.0).sqrt()) as usize;
    let per_round = {
        let mut w = workmodel::hpl_local_packet(n, p, machine);
        w.flops /= ROUNDS as f64;
        w.shared_dram_bytes /= ROUNDS as f64;
        w
    };
    // One panel step broadcasts N/ROUNDS columns of height N.
    let panel_bytes = ((n as f64 / ROUNDS as f64) * n as f64 * 8.0) as u64;
    let cfg = job(machine, mode, p, CollectiveMode::Modeled);
    let out = simulate(21, cfg, move |mpi| async move {
        for r in 0..ROUNDS {
            let root = r % mpi.size();
            let payload = (mpi.comm().rank() == root).then(|| Message::of_bytes(panel_bytes));
            mpi.comm().bcast(root, payload).await;
            mpi.compute(per_round).await;
        }
    });
    hpl_flops(n) / out.end_time.as_secs_f64() / 1e12
}

/// MPI-FFT (Figure 9): a distributed 1-D FFT = three all-to-all transposes
/// interleaved with local FFT compute. Returns GFLOPS.
pub fn mpi_fft(machine: &MachineSpec, mode: ExecMode, sockets: usize) -> f64 {
    let p = ranks_for_sockets(machine, mode, sockets);
    // ~32 MB of complex data per rank, power-of-two total.
    let total: usize = p.next_power_of_two() * (1 << 21);
    let per_pair = (total as u64 * 16) / (p as u64 * p as u64);
    let phase = {
        let mut w = workmodel::mpi_fft_local_packet(total, p);
        w.flops /= 3.0;
        w.serial_dram_bytes /= 3.0;
        w
    };
    let cfg = job(machine, mode, p, CollectiveMode::Modeled);
    let out = simulate(22, cfg, move |mpi| async move {
        for _ in 0..3 {
            let msgs = (0..mpi.size())
                .map(|_| Message::of_bytes(per_pair))
                .collect();
            mpi.comm().alltoall(msgs).await;
            mpi.compute(phase).await;
        }
    });
    xtsim_kernels::fft::fft_flops(total) / out.end_time.as_secs_f64() / 1e9
}

/// PTRANS (Figure 10): global transpose `A = A^T + A` on a ~square process
/// grid; every rank exchanges its tile with its transpose partner (real
/// point-to-point traffic across the torus). Returns GB/s.
pub fn ptrans(machine: &MachineSpec, mode: ExecMode, sockets: usize) -> f64 {
    let p = ranks_for_sockets(machine, mode, sockets);
    let q = (p as f64).sqrt().floor() as usize;
    let used = q * q;
    let mem_rank_bytes = machine.memory_per_rank_gb(mode) * 1e9;
    // HPCC sizing: the matrix fills ~20% of aggregate memory.
    let tile_bytes = (0.2 * mem_rank_bytes) as u64;
    let tile_elems = (tile_bytes / 8) as usize;
    let local = workmodel::ptrans_local_packet(tile_elems);
    let cfg = job(machine, mode, p, CollectiveMode::Modeled);
    let out = simulate(23, cfg, move |mpi| async move {
        let me = mpi.rank();
        if me >= used {
            return;
        }
        let (i, j) = (me / q, me % q);
        let partner = j * q + i;
        if partner != me {
            mpi.sendrecv(partner, 7, Message::of_bytes(tile_bytes), Some(partner), Some(7))
                .await;
        }
        mpi.compute(local).await;
    });
    used as f64 * tile_bytes as f64 / out.end_time.as_secs_f64() / 1e9
}

/// Updates each rank pushes per sampled MPI-RA run (steady-state sample).
const RA_UPDATES_PER_RANK: usize = 192;

/// MPI-RandomAccess (Figure 11): every update is a tiny message to a random
/// owner, so the machine-wide rate is bounded by per-message NIC/software
/// overhead — the mechanism behind the paper's VN-mode collapse. A fixed
/// per-rank sample of the update stream is simulated and the steady-state
/// GUPS reported.
pub fn mpi_ra(machine: &MachineSpec, mode: ExecMode, sockets: usize) -> f64 {
    let p = ranks_for_sockets(machine, mode, sockets);
    let cfg = job(machine, mode, p, CollectiveMode::Modeled);
    let out = simulate(24, cfg, move |mpi| async move {
        let mut rng = mpi.handle().rng(1000 + mpi.rank() as u64);
        let p = mpi.size();
        let me = mpi.rank();
        let mut sent = 0usize;
        while sent < RA_UPDATES_PER_RANK {
            // A burst of remote updates (16 B each: index + value)…
            let burst = 16.min(RA_UPDATES_PER_RANK - sent);
            for _ in 0..burst {
                let mut dst = rng.gen_range(0..p);
                if dst == me {
                    dst = (dst + 1) % p;
                }
                mpi.raw_transmit(dst, 16).await;
            }
            sent += burst;
            // …then the local table XORs for updates received meanwhile.
            mpi.compute(workmodel::random_access_packet(burst as u64))
                .await;
        }
    });
    let total_updates = (p * RA_UPDATES_PER_RANK) as f64;
    total_updates / out.end_time.as_secs_f64() / 1e9
}

/// A sweep row shared by all four global benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct GlobalPoint {
    /// Sockets in the job.
    pub sockets: usize,
    /// Cores in the job (= ranks).
    pub cores: usize,
    /// Benchmark value (TFLOPS / GFLOPS / GB/s / GUPS).
    pub value: f64,
}

/// Sweep a global benchmark over socket counts.
pub fn sweep(
    machine: &MachineSpec,
    mode: ExecMode,
    sockets: &[usize],
    bench: impl Fn(&MachineSpec, ExecMode, usize) -> f64,
) -> Vec<GlobalPoint> {
    sockets
        .iter()
        .map(|&s| GlobalPoint {
            sockets: s,
            cores: ranks_for_sockets(machine, mode, s),
            value: bench(machine, mode, s),
        })
        .collect()
}

/// The socket counts the figures sweep (bounded by sim cost; the paper runs
/// to ~1,150 sockets).
pub fn default_sweep_sockets() -> Vec<usize> {
    vec![64, 128, 256, 512, 1024, 1152]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtsim_machine::presets;

    #[test]
    fn hpl_scales_and_xt4_beats_xt3() {
        let xt3 = hpl(&presets::xt3_single(), ExecMode::SN, 128);
        let xt4 = hpl(&presets::xt4(), ExecMode::SN, 128);
        assert!(xt4 > xt3, "{xt4} !> {xt3}");
        // ~4 GFLOPS/socket at 128 sockets -> ~0.5 TFLOPS.
        assert!(xt4 > 0.3 && xt4 < 0.7, "{xt4}");
        let big = hpl(&presets::xt4(), ExecMode::SN, 512);
        assert!(big > 3.0 * xt4, "poor scaling: {xt4} -> {big}");
    }

    #[test]
    fn hpl_vn_per_socket_beats_sn() {
        // Figure 8: VN mode nearly doubles per-socket HPL.
        let sn = hpl(&presets::xt4(), ExecMode::SN, 128);
        let vn = hpl(&presets::xt4(), ExecMode::VN, 128);
        assert!(vn > 1.5 * sn, "vn {vn} sn {sn}");
    }

    #[test]
    fn mpi_fft_vn_per_core_worse_than_sn() {
        // Figure 9: the NIC bottleneck makes VN per-core MPI-FFT much worse.
        let sn = mpi_fft(&presets::xt4(), ExecMode::SN, 128);
        let vn = mpi_fft(&presets::xt4(), ExecMode::VN, 128);
        // Per socket VN may still win or draw, but per *core* it must lose.
        let sn_per_core = sn / 128.0;
        let vn_per_core = vn / 256.0;
        assert!(vn_per_core < sn_per_core, "{vn_per_core} !< {sn_per_core}");
    }

    #[test]
    fn ptrans_per_socket_flat_xt3_to_xt4() {
        // Figure 10: PTRANS is bound by the unchanged link bandwidth.
        let xt3 = ptrans(&presets::xt3_single(), ExecMode::SN, 144);
        let xt4 = ptrans(&presets::xt4(), ExecMode::SN, 144);
        let ratio = xt4 / xt3;
        assert!(ratio > 0.75 && ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    fn mpi_ra_vn_slower_than_xt3_and_sn() {
        // Figure 11: VN-mode MPI-RA falls below both SN mode and the XT3.
        let xt3 = mpi_ra(&presets::xt3_single(), ExecMode::SN, 64);
        let sn = mpi_ra(&presets::xt4(), ExecMode::SN, 64);
        let vn = mpi_ra(&presets::xt4(), ExecMode::VN, 64);
        assert!(sn > xt3, "sn {sn} xt3 {xt3}");
        assert!(vn < sn, "vn {vn} sn {sn}");
        assert!(vn < xt3, "vn {vn} xt3 {xt3}");
    }

    #[test]
    fn mpi_ra_scales_with_sockets() {
        let small = mpi_ra(&presets::xt4(), ExecMode::SN, 32);
        let large = mpi_ra(&presets::xt4(), ExecMode::SN, 128);
        assert!(large > 2.0 * small, "{small} -> {large}");
    }
}
