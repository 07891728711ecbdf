-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'fir'
-- data path: 1 nodes (1 soft, 0 hard), 3 pipeline stages
-- netlist: 22 cells, 65 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity fir_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    v0_A0 : in signed(7 downto 0);
    v1_A1 : in signed(7 downto 0);
    v2_A2 : in signed(7 downto 0);
    v3_A3 : in signed(7 downto 0);
    v4_A4 : in signed(7 downto 0);
    v19_t_out : out signed(12 downto 0)
  );
end entity fir_dp_node1;

architecture rtl of fir_dp_node1 is
  signal v7_t : signed(9 downto 0);
  signal v8_t : signed(10 downto 0);
  signal v9_t : signed(9 downto 0);
  signal v10_t : signed(10 downto 0);
  signal v11_t : signed(11 downto 0);
  signal v12_t : signed(10 downto 0);
  signal v13_t : signed(11 downto 0);
  signal v14_t : signed(12 downto 0);
  signal v15_t : signed(10 downto 0);
  signal v16_t : signed(11 downto 0);
  signal v17_t : signed(12 downto 0);
  signal v18_t : signed(12 downto 0);
  signal v19_t : signed(12 downto 0);
  signal v11_t_s1 : signed(11 downto 0);
  signal v13_t_s1 : signed(11 downto 0);
  signal v16_t_s1 : signed(11 downto 0);
  signal v17_t_s2 : signed(12 downto 0);
begin
  v7_t <= shift_left(resize(v0_A0, 10), to_integer(to_unsigned(2, 6)));
  v8_t <= resize(v7_t, 11) - resize(v0_A0, 11);
  v9_t <= shift_left(resize(v1_A1, 10), to_integer(to_unsigned(2, 6)));
  v10_t <= resize(v1_A1, 11) + resize(v9_t, 11);
  v11_t <= resize(v8_t, 12) + resize(v10_t, 12);
  v12_t <= shift_left(resize(v2_A2, 11), to_integer(to_unsigned(3, 6)));
  v13_t <= resize(v12_t, 12) - resize(v2_A2, 12);
  v14_t <= resize(v11_t_s1, 13) + resize(v13_t_s1, 13);
  v15_t <= shift_left(resize(v3_A3, 11), to_integer(to_unsigned(3, 6)));
  v16_t <= resize(v3_A3, 12) + resize(v15_t, 12);
  v17_t <= v14_t + resize(v16_t_s1, 13);
  v18_t <= v17_t_s2 - resize(v4_A4, 13);
  v19_t <= v18_t;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v11_t_s1 <= v11_t;
        v13_t_s1 <= v13_t;
        v16_t_s1 <= v16_t;
        v17_t_s2 <= v17_t;
      end if;
    end if;
  end process;
  v19_t_out <= v19_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity fir_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(7 downto 0);
    A1 : in signed(7 downto 0);
    A2 : in signed(7 downto 0);
    A3 : in signed(7 downto 0);
    A4 : in signed(7 downto 0);
    C_o0 : out signed(15 downto 0)
  );
end entity fir_dp;

architecture rtl of fir_dp is
  signal v19_t : signed(12 downto 0);
  signal v4_A4_p1 : signed(7 downto 0);
  signal v4_A4_p2 : signed(7 downto 0);
begin
  u_node1 : entity work.fir_dp_node1
    port map (clk => clk, ce => ce, v0_A0 => A0, v1_A1 => A1, v2_A2 => A2, v3_A3 => A3, v4_A4 => v4_A4_p2, v19_t_out => v19_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v4_A4_p1 <= A4;
        v4_A4_p2 <= v4_A4_p1;
      end if;
    end if;
  end process;
  C_o0 <= resize(v19_t, 16);
end architecture rtl;
