-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'decimate2'
-- data path: 1 nodes (1 soft, 0 hard), 1 pipeline stages
-- netlist: 4 cells, 0 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity decimate2_dp_node1 is
  port (
    v0_A0 : in signed(11 downto 0);
    v1_A1 : in signed(11 downto 0);
    v5_t_out : out signed(11 downto 0)
  );
end entity decimate2_dp_node1;

architecture rtl of decimate2_dp_node1 is
  signal v2_t : signed(12 downto 0);
  signal v4_t : signed(11 downto 0);
  signal v5_t : signed(11 downto 0);
begin
  v2_t <= resize(v0_A0, 13) + resize(v1_A1, 13);
  v4_t <= shift_right(resize(v2_t, 12), to_integer(to_unsigned(1, 6)));
  v5_t <= v4_t;
  v5_t_out <= v5_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity decimate2_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    C_o0 : out signed(11 downto 0)
  );
end entity decimate2_dp;

architecture rtl of decimate2_dp is
  signal v5_t : signed(11 downto 0);
begin
  u_node1 : entity work.decimate2_dp_node1
    port map (v0_A0 => A0, v1_A1 => A1, v5_t_out => v5_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
      end if;
    end if;
  end process;
  C_o0 <= resize(v5_t, 12);
end architecture rtl;
