//! A small program library for the demonstration CPU — realistic workloads
//! for the Chapter-7 experiments and fault campaigns.
//!
//! Calling convention: inputs are poked into fixed memory addresses before
//! the run; results land at [`RESULT`].

use crate::cpu::{Op, Program};

/// Address where programs leave their result.
pub const RESULT: u8 = 0x10;
/// First scratch/input address.
pub const ARG0: u8 = 0x40;
/// Second scratch/input address.
pub const ARG1: u8 = 0x41;

const TMP: u8 = 0x42;
const ONE: u8 = 0x43;

/// `RESULT = ARG0 * ARG1` (mod 256) by repeated addition.
#[must_use]
pub fn multiply() -> Program {
    Program(vec![
        Op::Ldi(1),
        Op::Sta(ONE),
        Op::Ldi(0),
        Op::Sta(RESULT),
        // loop (pc 4): while ARG1 != 0 { RESULT += ARG0; ARG1 -= 1 }
        Op::Lda(ARG1),
        Op::Jz(12),
        Op::Sub(ONE),
        Op::Sta(ARG1),
        Op::Lda(RESULT),
        Op::Add(ARG0),
        Op::Sta(RESULT),
        Op::Jmp(4),
        Op::Hlt, // 12
    ])
}

/// `RESULT = fib(ARG0)` (mod 256), iteratively.
#[must_use]
pub fn fibonacci() -> Program {
    // a at RESULT, b at TMP.
    Program(vec![
        Op::Ldi(1),
        Op::Sta(ONE),
        Op::Ldi(0),
        Op::Sta(RESULT), // a = 0
        Op::Ldi(1),
        Op::Sta(TMP), // b = 1
        // loop (pc 6): while ARG0 != 0 { (a, b) = (b, a + b); ARG0 -= 1 }
        Op::Lda(ARG0),
        Op::Jz(18),
        Op::Sub(ONE),
        Op::Sta(ARG0),
        Op::Lda(RESULT),
        Op::Add(TMP), // a + b
        Op::Sta(0x44),
        Op::Lda(TMP),
        Op::Sta(RESULT), // a = b
        Op::Lda(0x44),
        Op::Sta(TMP), // b = a + b
        Op::Jmp(6),
        Op::Hlt, // 18
    ])
}

/// `RESULT = popcount(ARG0)` using shifts and masking.
#[must_use]
pub fn popcount() -> Program {
    Program(vec![
        Op::Ldi(1),
        Op::Sta(ONE),
        Op::Ldi(0),
        Op::Sta(RESULT),
        Op::Ldi(8),
        Op::Sta(TMP), // 8 bit positions to examine
        // loop (pc 6):
        Op::Lda(TMP),
        Op::Jz(20),
        Op::Sub(ONE),
        Op::Sta(TMP),
        Op::Lda(ARG0),
        Op::And(ONE), // low bit
        Op::Jz(16),
        Op::Lda(RESULT),
        Op::Add(ONE),
        Op::Sta(RESULT),
        Op::Lda(ARG0), // 16
        Op::Shr,
        Op::Sta(ARG0),
        Op::Jmp(6),
        Op::Hlt, // 20
    ])
}

/// `RESULT = XOR-checksum of the words at addresses 0x60..0x60+ARG0`.
#[must_use]
pub fn checksum() -> Program {
    // Without indexed addressing, unroll for a fixed block of 4.
    Program(vec![
        Op::Ldi(0),
        Op::Xor(0x60),
        Op::Xor(0x61),
        Op::Xor(0x62),
        Op::Xor(0x63),
        Op::Sta(RESULT),
        Op::Hlt,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, CpuMode};

    fn run_with(program: &Program, setup: &[(u8, u8)], mode: CpuMode) -> Cpu {
        let mut cpu = Cpu::new(mode);
        for &(a, v) in setup {
            cpu.memory.write(a, v);
        }
        cpu.run(program, 1_000_000).unwrap();
        assert!(cpu.halted());
        cpu
    }

    #[test]
    fn multiply_works_in_both_modes() {
        for mode in [CpuMode::Normal, CpuMode::Alternating] {
            for (a, b) in [(0u8, 5u8), (7, 6), (13, 11), (255, 2)] {
                let cpu = run_with(&multiply(), &[(ARG0, a), (ARG1, b)], mode);
                assert_eq!(
                    cpu.memory.read(RESULT).unwrap(),
                    a.wrapping_mul(b),
                    "{a} * {b}"
                );
            }
        }
    }

    #[test]
    fn fibonacci_sequence() {
        let expect = [0u8, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];
        for (n, &f) in expect.iter().enumerate() {
            let cpu = run_with(&fibonacci(), &[(ARG0, n as u8)], CpuMode::Alternating);
            assert_eq!(cpu.memory.read(RESULT).unwrap(), f, "fib({n})");
        }
    }

    #[test]
    fn popcount_all_byte_shapes() {
        for v in [0u8, 1, 0x80, 0xAA, 0x55, 0xFF, 0x3C] {
            let cpu = run_with(&popcount(), &[(ARG0, v)], CpuMode::Alternating);
            assert_eq!(
                u32::from(cpu.memory.read(RESULT).unwrap()),
                v.count_ones(),
                "popcount({v:#04x})"
            );
        }
    }

    #[test]
    fn checksum_of_a_block() {
        let block = [(0x60u8, 0x12u8), (0x61, 0x34), (0x62, 0x56), (0x63, 0x78)];
        let cpu = run_with(&checksum(), &block, CpuMode::Alternating);
        assert_eq!(cpu.memory.read(RESULT).unwrap(), 0x12 ^ 0x34 ^ 0x56 ^ 0x78);
    }

    #[test]
    fn logic_unit_fault_campaign_over_program_suite() {
        // Every collapsed fault of the gate-level logic unit, against the
        // popcount + checksum workloads: no undetected wrong answers in
        // alternating mode.
        let report = crate::campaign::Campaign::new(crate::campaign::CpuUnit::Logic)
            .run()
            .expect("workloads pass fault-free");
        assert_eq!(
            report.undetected_wrong(),
            0,
            "single-fault coverage must hold"
        );
    }
}
