/**
 * @file
 * Program container and assembler-style builder. Attack code, victim
 * code, and synthetic workloads are all constructed through
 * ProgramBuilder: it provides labels, a bump allocator for data arrays,
 * and initial-data images applied to main memory before a run.
 */

#ifndef UNXPEC_CPU_PROGRAM_HH
#define UNXPEC_CPU_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/isa.hh"
#include "sim/types.hh"

namespace unxpec {

class MainMemory;

/** A fully assembled program. */
class Program
{
  public:
    /** Base address of the code image (for I-cache modeling). */
    static constexpr Addr kCodeBase = 0x00400000;
    /** Bytes per instruction in the code image. */
    static constexpr unsigned kInstBytes = 4;

    const std::vector<Instruction> &code() const { return code_; }
    const Instruction &at(std::size_t pc) const { return code_[pc]; }
    std::size_t size() const { return code_.size(); }

    /** Fetch address of an instruction index. */
    static Addr pcToAddr(std::size_t pc)
    {
        return kCodeBase + pc * kInstBytes;
    }

    /** Apply all initial-data images to main memory. */
    void loadInitialData(MainMemory &mem) const;

    /** Multi-line disassembly listing. */
    std::string listing() const;

  private:
    friend class ProgramBuilder;

    struct DataInit
    {
        Addr addr;
        std::vector<std::uint8_t> bytes;
    };

    std::vector<Instruction> code_;
    std::vector<DataInit> inits_;
};

/** Incremental builder with labels and data allocation. */
class ProgramBuilder
{
  public:
    ProgramBuilder();

    // ---- data segment ----------------------------------------------
    /** Allocate `bytes` of data, line-aligned by default. */
    Addr alloc(std::size_t bytes, std::size_t align = kLineBytes);

    /** Set initial data at an address. */
    void initByte(Addr addr, std::uint8_t value);
    void initWord64(Addr addr, std::uint64_t value);

    // ---- labels ------------------------------------------------------
    /** Create a new unbound label. */
    int label();
    /** Bind a label to the next emitted instruction. */
    void bind(int label_id);

    // ---- instruction emitters ---------------------------------------
    void nop();
    void halt();
    void li(RegIndex rd, std::int64_t value);
    void mov(RegIndex rd, RegIndex rs);
    void add(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void addi(RegIndex rd, RegIndex rs1, std::int64_t imm);
    void sub(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void mul(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void and_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void or_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void xor_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    void shl(RegIndex rd, RegIndex rs1, unsigned amount);
    void shr(RegIndex rd, RegIndex rs1, unsigned amount);
    void load(RegIndex rd, RegIndex rs1, std::int64_t imm = 0,
              unsigned size = 8);
    void store(RegIndex rs1, std::int64_t imm, RegIndex value_reg,
               unsigned size = 8);
    void blt(RegIndex rs1, RegIndex rs2, int label_id);
    void bge(RegIndex rs1, RegIndex rs2, int label_id);
    void beq(RegIndex rs1, RegIndex rs2, int label_id);
    void bne(RegIndex rs1, RegIndex rs2, int label_id);
    void jmp(int label_id);
    void clflush(RegIndex rs1, std::int64_t imm = 0);
    void fence();
    void rdtscp(RegIndex rd);

    /** Current instruction index (next emit position). */
    std::size_t here() const { return code_.size(); }

    /** Patch labels and produce the program. All labels must be bound. */
    Program build();

  private:
    void emit(Instruction inst, int label_id = -1);

    std::vector<Instruction> code_;
    std::vector<int> pendingLabel_; //!< per-instruction label or -1
    std::vector<std::int32_t> labelTargets_;
    std::vector<Program::DataInit> inits_;
    Addr dataBreak_;
};

} // namespace unxpec

#endif // UNXPEC_CPU_PROGRAM_HH
