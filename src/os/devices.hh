/**
 * @file
 * Interrupting devices of the modeled system: the interval clock and
 * the terminal multiplexer fed by the Remote Terminal Emulator (RTE)
 * model. The paper's RTE was a PDP-11 replaying canned user scripts
 * into the VAX's terminal lines (§2.2); here the same role is played
 * by a wake-up event queue populated by the VMS-lite think-time model.
 */

#ifndef UPC780_OS_DEVICES_HH
#define UPC780_OS_DEVICES_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "cpu/vax780.hh"
#include "common/stats.hh"
#include "os/layout.hh"

namespace upc780::os
{

/** The interval clock: a periodic IPL-24 interrupt. */
class IntervalTimer : public cpu::Device
{
  public:
    explicit IntervalTimer(uint64_t period_cycles)
        : period_(period_cycles), nextAt_(period_cycles)
    {}

    void
    tick(uint64_t now) override
    {
        if (!pending_ && now >= nextAt_)
            pending_ = true;
    }

    bool
    requesting(uint32_t &level, uint32_t &vector) override
    {
        if (!pending_)
            return false;
        level = 24;
        vector = vec::Timer;
        return true;
    }

    void
    acknowledge() override
    {
        pending_ = false;
        nextAt_ += period_;
        ++interrupts_;
    }

    uint64_t nextEventAt() const override { return pending_ ? 0 : nextAt_; }

    uint64_t interrupts() const { return interrupts_.value(); }

  private:
    friend class VmsLite;

    /**
     * The checkpoint field list, both directions (common/serial.hh):
     * phase, pending flag and counter, inside the kernel's section.
     */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    uint64_t period_;
    uint64_t nextAt_;
    bool pending_ = false;
    upc780::Counter interrupts_;
};

/**
 * The RTE terminal multiplexer: raises an IPL-20 interrupt whenever a
 * simulated user's input becomes available (i.e. a scheduled process
 * wake-up time is reached).
 */
class RteTerminal : public cpu::Device
{
  public:
    /** Schedule terminal input for process @p pid at @p cycle. */
    void
    scheduleInput(uint64_t cycle, int pid)
    {
        queue_.push(Event{cycle, pid});
        changed();
    }

    void
    tick(uint64_t now) override
    {
        now_ = now;
    }

    bool
    requesting(uint32_t &level, uint32_t &vector) override
    {
        if (inService_ || queue_.empty() || queue_.top().at > now_)
            return false;
        level = 20;
        vector = vec::Terminal;
        return true;
    }

    void
    acknowledge() override
    {
        inService_ = true;
        ++interrupts_;
    }

    uint64_t
    nextEventAt() const override
    {
        return inService_ || queue_.empty() ? ~uint64_t{0}
                                            : queue_.top().at;
    }

    /**
     * Called by the kernel's terminal ISR (through the assist hook),
     * after the terminal is ticked to the last finished cycle: drain
     * all due events, reporting the processes to wake.
     */
    std::vector<int>
    drainDue()
    {
        std::vector<int> pids;
        while (!queue_.empty() && queue_.top().at <= now_) {
            pids.push_back(queue_.top().pid);
            queue_.pop();
        }
        inService_ = false;
        changed();
        return pids;
    }

    uint64_t interrupts() const { return interrupts_.value(); }
    bool idle() const { return queue_.empty(); }

  private:
    friend class VmsLite;

    /**
     * The checkpoint field list, both directions (common/serial.hh):
     * the event queue and service state, checkpointed inside the
     * kernel's section (kernel.cc) because a restored event must name
     * one of the kernel's @p processes.
     */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar, size_t processes);

    struct Event
    {
        uint64_t at;
        int pid;

        bool
        operator>(const Event &o) const
        {
            return at > o.at;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue_;
    uint64_t now_ = 0;
    bool inService_ = false;
    upc780::Counter interrupts_;
};

} // namespace upc780::os

#endif // UPC780_OS_DEVICES_HH
