#include "cpu/program.hh"

#include <sstream>

#include "memory/main_memory.hh"
#include "sim/log.hh"

namespace unxpec {

void
Program::loadInitialData(MainMemory &mem) const
{
    for (const auto &init : inits_) {
        for (std::size_t i = 0; i < init.bytes.size(); ++i)
            mem.write8(init.addr + i, init.bytes[i]);
    }
}

std::string
Program::listing() const
{
    std::ostringstream oss;
    for (std::size_t pc = 0; pc < code_.size(); ++pc)
        oss << pc << ":\t" << disassemble(code_[pc]) << "\n";
    return oss.str();
}

ProgramBuilder::ProgramBuilder()
    : dataBreak_(0x10000000)
{
}

Addr
ProgramBuilder::alloc(std::size_t bytes, std::size_t align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        fatal("ProgramBuilder::alloc: alignment must be a power of two");
    dataBreak_ = (dataBreak_ + align - 1) & ~static_cast<Addr>(align - 1);
    const Addr addr = dataBreak_;
    dataBreak_ += bytes;
    return addr;
}

void
ProgramBuilder::initByte(Addr addr, std::uint8_t value)
{
    inits_.push_back({addr, {value}});
}

void
ProgramBuilder::initWord64(Addr addr, std::uint64_t value)
{
    std::vector<std::uint8_t> bytes(8);
    for (unsigned i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    inits_.push_back({addr, std::move(bytes)});
}

int
ProgramBuilder::label()
{
    labelTargets_.push_back(-1);
    return static_cast<int>(labelTargets_.size()) - 1;
}

void
ProgramBuilder::bind(int label_id)
{
    if (label_id < 0 || label_id >= static_cast<int>(labelTargets_.size()))
        fatal("ProgramBuilder::bind: unknown label");
    labelTargets_[label_id] = static_cast<std::int32_t>(code_.size());
}

void
ProgramBuilder::emit(Instruction inst, int label_id)
{
    code_.push_back(inst);
    pendingLabel_.push_back(label_id);
}

void ProgramBuilder::nop() { emit({.op = Opcode::NOP}); }
void ProgramBuilder::halt() { emit({.op = Opcode::HALT}); }

void
ProgramBuilder::li(RegIndex rd, std::int64_t value)
{
    emit({.op = Opcode::LI, .rd = rd, .imm = value});
}

void
ProgramBuilder::mov(RegIndex rd, RegIndex rs)
{
    emit({.op = Opcode::MOV, .rd = rd, .rs1 = rs});
}

void
ProgramBuilder::add(RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    emit({.op = Opcode::ADD, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

void
ProgramBuilder::addi(RegIndex rd, RegIndex rs1, std::int64_t imm)
{
    emit({.op = Opcode::ADDI, .rd = rd, .rs1 = rs1, .imm = imm});
}

void
ProgramBuilder::sub(RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    emit({.op = Opcode::SUB, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

void
ProgramBuilder::mul(RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    emit({.op = Opcode::MUL, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

void
ProgramBuilder::and_(RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    emit({.op = Opcode::AND, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

void
ProgramBuilder::or_(RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    emit({.op = Opcode::OR, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

void
ProgramBuilder::xor_(RegIndex rd, RegIndex rs1, RegIndex rs2)
{
    emit({.op = Opcode::XOR, .rd = rd, .rs1 = rs1, .rs2 = rs2});
}

void
ProgramBuilder::shl(RegIndex rd, RegIndex rs1, unsigned amount)
{
    emit({.op = Opcode::SHL, .rd = rd, .rs1 = rs1,
          .imm = static_cast<std::int64_t>(amount)});
}

void
ProgramBuilder::shr(RegIndex rd, RegIndex rs1, unsigned amount)
{
    emit({.op = Opcode::SHR, .rd = rd, .rs1 = rs1,
          .imm = static_cast<std::int64_t>(amount)});
}

void
ProgramBuilder::load(RegIndex rd, RegIndex rs1, std::int64_t imm,
                     unsigned size)
{
    emit({.op = Opcode::LOAD, .rd = rd, .rs1 = rs1, .imm = imm,
          .size = static_cast<std::uint8_t>(size)});
}

void
ProgramBuilder::store(RegIndex rs1, std::int64_t imm, RegIndex value_reg,
                      unsigned size)
{
    emit({.op = Opcode::STORE, .rs1 = rs1, .rs2 = value_reg, .imm = imm,
          .size = static_cast<std::uint8_t>(size)});
}

void
ProgramBuilder::blt(RegIndex rs1, RegIndex rs2, int label_id)
{
    emit({.op = Opcode::BLT, .rs1 = rs1, .rs2 = rs2}, label_id);
}

void
ProgramBuilder::bge(RegIndex rs1, RegIndex rs2, int label_id)
{
    emit({.op = Opcode::BGE, .rs1 = rs1, .rs2 = rs2}, label_id);
}

void
ProgramBuilder::beq(RegIndex rs1, RegIndex rs2, int label_id)
{
    emit({.op = Opcode::BEQ, .rs1 = rs1, .rs2 = rs2}, label_id);
}

void
ProgramBuilder::bne(RegIndex rs1, RegIndex rs2, int label_id)
{
    emit({.op = Opcode::BNE, .rs1 = rs1, .rs2 = rs2}, label_id);
}

void
ProgramBuilder::jmp(int label_id)
{
    emit({.op = Opcode::JMP}, label_id);
}

void
ProgramBuilder::clflush(RegIndex rs1, std::int64_t imm)
{
    emit({.op = Opcode::CLFLUSH, .rs1 = rs1, .imm = imm});
}

void
ProgramBuilder::fence()
{
    emit({.op = Opcode::FENCE});
}

void
ProgramBuilder::rdtscp(RegIndex rd)
{
    emit({.op = Opcode::RDTSCP, .rd = rd});
}

Program
ProgramBuilder::build()
{
    Program program;
    program.code_ = code_;
    program.inits_ = inits_;
    for (std::size_t pc = 0; pc < code_.size(); ++pc) {
        const int label_id = pendingLabel_[pc];
        if (label_id < 0)
            continue;
        const std::int32_t target = labelTargets_[label_id];
        if (target < 0)
            fatal("ProgramBuilder::build: label ", label_id, " never bound");
        program.code_[pc].target = target;
    }
    return program;
}

} // namespace unxpec
