#include "presets.h"

namespace camllm::core {

CamConfig
presetCustom(std::uint32_t channels, std::uint32_t chips)
{
    CamConfig c;
    c.name = "Cambricon-LLM-custom";
    c.flash.geometry.channels = channels;
    c.flash.geometry.chips_per_channel = chips;
    // Table II common parameters: 2 dies/chip, 2 planes + 1 compute
    // core per die, 16 KB pages, 1000 MT/s x 8 bit, tR = 30 us.
    c.flash.geometry.dies_per_chip = 2;
    c.flash.geometry.planes_per_die = 2;
    c.flash.geometry.compute_cores_per_die = 1;
    c.flash.geometry.page_bytes = 16 * 1024;
    c.flash.timing.t_read = 30 * kUs;
    c.flash.timing.bus_mts = 1000;
    c.flash.timing.bus_bits = 8;
    return c;
}

CamConfig
presetS()
{
    CamConfig c = presetCustom(8, 2);
    c.name = "Cam-LLM-S";
    return c;
}

CamConfig
presetM()
{
    CamConfig c = presetCustom(16, 4);
    c.name = "Cam-LLM-M";
    return c;
}

CamConfig
presetL()
{
    CamConfig c = presetCustom(32, 8);
    c.name = "Cam-LLM-L";
    return c;
}

} // namespace camllm::core
