#include "workloads/builder.hh"

#include "common/logging.hh"

namespace siq
{

ProgramBuilder::ProgramBuilder(std::string name, std::uint64_t memWords)
{
    prog.name = std::move(name);
    prog.memWords = memWords;
}

BasicBlock &
ProgramBuilder::cur()
{
    SIQ_ASSERT(curProc >= 0 && curBlock >= 0, "no cursor");
    return prog.procs[curProc].blocks[curBlock];
}

int
ProgramBuilder::newProc(const std::string &name, bool isLibrary)
{
    Procedure proc;
    proc.id = static_cast<int>(prog.procs.size());
    proc.name = name;
    proc.isLibrary = isLibrary;
    prog.procs.push_back(std::move(proc));
    curProc = prog.procs.back().id;
    curBlock = -1;
    newBlock();
    curBlock = 0;
    return curProc;
}

int
ProgramBuilder::newBlock()
{
    SIQ_ASSERT(curProc >= 0, "no current procedure");
    auto &blocks = prog.procs[curProc].blocks;
    BasicBlock block;
    block.id = static_cast<int>(blocks.size());
    blocks.push_back(std::move(block));
    if (curBlock < 0)
        curBlock = blocks.back().id;
    return blocks.back().id;
}

void
ProgramBuilder::switchTo(int blockId)
{
    SIQ_ASSERT(blockId >= 0 &&
               blockId < static_cast<int>(
                   prog.procs[curProc].blocks.size()),
               "bad block id");
    curBlock = blockId;
}

void
ProgramBuilder::switchToProc(int procId, int blockId)
{
    SIQ_ASSERT(procId >= 0 &&
               procId < static_cast<int>(prog.procs.size()),
               "bad proc id");
    curProc = procId;
    switchTo(blockId);
}

void
ProgramBuilder::emit(const StaticInst &si)
{
    BasicBlock &block = cur();
    SIQ_ASSERT(block.terminator() == nullptr,
               "emitting past a terminator in block ", block.id);
    block.insts.push_back(si);
}

void
ProgramBuilder::fallInto(int blockId)
{
    cur().fallthrough = blockId;
    switchTo(blockId);
}

void
ProgramBuilder::jumpTo(int blockId)
{
    emit(makeJump(blockId));
}

ProgramBuilder::Loop
ProgramBuilder::beginLoop(int counterReg, int boundReg)
{
    Loop loop;
    loop.counterReg = counterReg;
    loop.boundReg = boundReg;
    loop.header = newBlock();
    loop.body = newBlock();
    loop.exit = newBlock();
    fallInto(loop.header);
    emit(makeBge(counterReg, boundReg, loop.exit));
    cur().fallthrough = loop.body;
    switchTo(loop.body);
    return loop;
}

void
ProgramBuilder::endLoop(const Loop &loop, std::int64_t step)
{
    emit(makeAddImm(loop.counterReg, loop.counterReg, step));
    jumpTo(loop.header);
    switchTo(loop.exit);
}

void
ProgramBuilder::callProc(int procId)
{
    const int cont = newBlock();
    emit(makeCall(procId));
    cur().fallthrough = cont;
    switchTo(cont);
}

ProgramBuilder::Diamond
ProgramBuilder::beginIf(StaticInst condBranch)
{
    SIQ_ASSERT(condBranch.traits().isBranch, "beginIf needs a branch");
    Diamond d;
    d.thenBlock = newBlock();
    d.elseBlock = newBlock();
    d.join = newBlock();
    condBranch.target = d.thenBlock;
    emit(condBranch);
    cur().fallthrough = d.elseBlock;
    switchTo(d.thenBlock);
    return d;
}

void
ProgramBuilder::elseBranch(const Diamond &d)
{
    jumpTo(d.join);
    switchTo(d.elseBlock);
}

void
ProgramBuilder::joinUp(const Diamond &d)
{
    fallInto(d.join);
}

ProgramBuilder::Switch
ProgramBuilder::beginSwitch(int indexReg, int numCases)
{
    SIQ_ASSERT(numCases > 0, "switch needs cases");
    Switch sw;
    emit(makeIJump(indexReg));
    const int origin = curBlock;
    sw.join = newBlock();
    for (int i = 0; i < numCases; i++)
        sw.cases.push_back(newBlock());
    auto &originBlock = prog.procs[curProc].blocks[origin];
    for (int caseBlock : sw.cases)
        originBlock.indirectTargets.push_back(caseBlock);
    switchTo(sw.cases.front());
    return sw;
}

std::uint64_t
ProgramBuilder::alloc(std::uint64_t words)
{
    SIQ_ASSERT(allocPtr + words <= prog.memWords,
               "data segment overflow: need ", allocPtr + words,
               " words, have ", prog.memWords);
    const std::uint64_t base = allocPtr;
    allocPtr += words;
    return base;
}

void
ProgramBuilder::initMem(std::uint64_t wordAddr, std::int64_t value)
{
    memInit.emplace_back(wordAddr, value);
}

void
ProgramBuilder::reserveMem(std::uint64_t pairs)
{
    memInit.reserve(memInit.size() + pairs);
}

Program
ProgramBuilder::build(int entryProc)
{
    SIQ_ASSERT(!built, "build() called twice");
    built = true;
    prog.entryProc = entryProc;
    prog.memImage = std::make_shared<const MemImage>(std::move(memInit));
    prog.finalize();
    return std::move(prog);
}

} // namespace siq
