-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'two_pass'
-- data path: 1 nodes (1 soft, 0 hard), 1 pipeline stages
-- netlist: 8 cells, 0 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity two_pass_dp_node1 is
  port (
    v0_A0 : in signed(9 downto 0);
    v4_t_out : out signed(11 downto 0);
    v7_t_out : out signed(10 downto 0)
  );
end entity two_pass_dp_node1;

architecture rtl of two_pass_dp_node1 is
  signal v2_t : signed(11 downto 0);
  signal v3_t : signed(12 downto 0);
  signal v4_t : signed(11 downto 0);
  signal v6_t : signed(10 downto 0);
  signal v7_t : signed(10 downto 0);
begin
  v2_t <= shift_left(resize(v0_A0, 12), to_integer(to_unsigned(2, 6)));
  v3_t <= resize(v2_t, 13) - resize(v0_A0, 13);
  v4_t <= resize(v3_t, 12);
  v6_t <= resize(v0_A0, 11) + to_signed(100, 11);
  v7_t <= v6_t;
  v4_t_out <= v4_t;
  v7_t_out <= v7_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity two_pass_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(9 downto 0);
    C_o0 : out signed(11 downto 0);
    D_o0 : out signed(11 downto 0)
  );
end entity two_pass_dp;

architecture rtl of two_pass_dp is
  signal v4_t : signed(11 downto 0);
  signal v7_t : signed(10 downto 0);
begin
  u_node1 : entity work.two_pass_dp_node1
    port map (v0_A0 => A0, v4_t_out => v4_t, v7_t_out => v7_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
      end if;
    end if;
  end process;
  C_o0 <= resize(v4_t, 12);
  D_o0 <= resize(v7_t, 12);
end architecture rtl;
