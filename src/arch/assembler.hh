/**
 * @file
 * Programmatic VAX assembler. Workload generators, examples and tests
 * use this to build real VAX machine code images that the simulated
 * 11/780 executes.
 */

#ifndef UPC780_ARCH_ASSEMBLER_HH
#define UPC780_ARCH_ASSEMBLER_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifier.hh"
#include "arch/types.hh"

namespace upc780::arch
{

/** Width selection for displacement addressing modes. */
enum class DispWidth : uint8_t
{
    Auto,  //!< smallest width that holds the displacement
    Byte,
    Word,
    Long,
};

/**
 * One operand as supplied to the assembler. Construct through the
 * named factory functions; optionally wrap with indexed().
 */
class Operand
{
  public:
    /** Short literal S^#v (v in 0..63). */
    static Operand lit(uint8_t v);
    /** Immediate #v, encoded as (PC)+. */
    static Operand imm(uint64_t v);
    /** Register Rn. */
    static Operand reg(unsigned rn);
    /** Register deferred (Rn). */
    static Operand regDef(unsigned rn);
    /** Autoincrement (Rn)+. */
    static Operand autoInc(unsigned rn);
    /** Autoincrement deferred @(Rn)+. */
    static Operand autoIncDef(unsigned rn);
    /** Autodecrement -(Rn). */
    static Operand autoDec(unsigned rn);
    /** Displacement d(Rn). */
    static Operand disp(int32_t d, unsigned rn,
                        DispWidth w = DispWidth::Auto);
    /** Displacement deferred @d(Rn). */
    static Operand dispDef(int32_t d, unsigned rn,
                           DispWidth w = DispWidth::Auto);
    /** Absolute @#addr. */
    static Operand abs(uint32_t addr);

    /**
     * PC-relative reference to a label (encoded as displacement off
     * PC, the way compiled VAX code addresses static data and
     * procedure entry points).
     */
    static Operand rel(struct Label l, DispWidth w = DispWidth::Word);

    /** Return a copy of this operand with an index prefix [Rx]. */
    Operand indexed(unsigned rx) const;

    AddrMode mode() const { return mode_; }
    bool isIndexed() const { return indexed_; }

  private:
    friend class Assembler;
    Operand() = default;

    AddrMode mode_ = AddrMode::Register;
    uint8_t reg_ = 0;
    uint8_t literal_ = 0;
    int32_t disp_ = 0;
    uint64_t imm_ = 0;
    DispWidth width_ = DispWidth::Auto;
    bool indexed_ = false;
    uint8_t indexReg_ = 0;
    uint32_t labelId_ = ~0u;  //!< PC-relative target label, if any
};

/** Opaque label handle for branch targets. */
struct Label
{
    uint32_t id = ~0u;
    bool valid() const { return id != ~0u; }
};

/**
 * Assembles VAX instructions into a byte image at a fixed base virtual
 * address, with label-based branch fixups (byte and word displacements
 * and CASEx displacement tables).
 */
class Assembler
{
  public:
    explicit Assembler(VAddr base) : base_(base) {}

    /** Create a new unbound label. */
    Label newLabel();

    /** Bind a label to the current position. */
    void bind(Label l);

    /** Create a label bound to the current position. */
    Label here();

    /** Current virtual address. */
    VAddr pc() const { return base_ + static_cast<VAddr>(bytes_.size()); }

    VAddr base() const { return base_; }

    /**
     * Emit an instruction. Branch-displacement operands are not part
     * of @p ops; use the overload taking a target Label.
     */
    void emit(Op op, std::initializer_list<Operand> ops);
    void emit(Op op, std::span<const Operand> ops);

    /** Emit a branch-format instruction targeting @p target. */
    void emitBr(Op op, Label target);
    void emitBr(Op op, std::initializer_list<Operand> ops, Label target);
    void emitBr(Op op, std::span<const Operand> ops, Label target);

    /**
     * Emit a CASEx instruction with its word displacement table.
     * Execution falls through past the table when the selector is out
     * of range.
     */
    void emitCase(Op op, std::initializer_list<Operand> ops,
                  const std::vector<Label> &targets);

    /** Emit raw data. */
    void db(uint8_t v);
    void dw(uint16_t v);
    void dl(uint32_t v);
    void dq(uint64_t v);
    void zero(uint32_t n);

    /** Pad with zero bytes to the given power-of-two alignment. */
    void align(uint32_t alignment);

    /**
     * Resolve all fixups and return the image. fatal() if a label is
     * unbound or a displacement does not fit its field.
     */
    const std::vector<uint8_t> &finish();

    /** Image size so far in bytes. */
    size_t size() const { return bytes_.size(); }

  private:
    struct Fixup
    {
        size_t offset;      //!< byte offset of the displacement field
        uint32_t label;     //!< target label id
        uint8_t width;      //!< 1 or 2 bytes
        VAddr pcAfter;      //!< PC value the displacement is relative to
    };

    /** Bound on one instruction's encoding: the opcode, six operands
     *  of at most an index byte, a specifier byte and eight bytes, and
     *  a word branch displacement. */
    static constexpr size_t MaxInstrBytes = 1 + 6 * (1 + 1 + 8) + 2;

    /** Encode @p o at @p out, advancing it past the bytes written. */
    void emitOperand(const Operand &o, const OperandSpec &spec,
                     uint8_t *&out);
    void emitInstr(Op op, std::span<const Operand> ops,
                   const Label *target);
    /** Record a fixup for the @p width-byte field at @p field. */
    void addFixup(const uint8_t *field, uint32_t label, uint8_t width);

    VAddr base_;
    std::vector<uint8_t> bytes_;
    std::vector<VAddr> labelAddrs_;       //!< by label id; ~0u unbound
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace upc780::arch

#endif // UPC780_ARCH_ASSEMBLER_HH
